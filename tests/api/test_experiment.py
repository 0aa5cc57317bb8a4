"""Tests for the Experiment builder, Session runner, and RunHandle."""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Experiment,
    FaultSpec,
    MachineSpec,
    RunSpec,
    Session,
    SpecError,
    WorkloadSpec,
)
from repro.config import SCHEDULERS, TOPOLOGIES
from repro.exp.points import run_machine_point

WORKLOAD = "balanced:2:2:5"

_POLICIES = st.sampled_from(["none", "rollback", "splice", "reversible", "replicated:3"])
_MACHINE = {f"machine.{f.name}" for f in fields(MachineSpec)}

#: Each setter: a strategy for its arguments, and the fields of ``_flat``
#: it may change.  Processor counts are 4 or 8 and faults name
#: node 0 or 1, so every chain of setters builds a valid RunSpec.
SETTERS = {
    "workload": (st.tuples(st.sampled_from([WORKLOAD, "fib-10", "chain:3:5"])), {"workload"}),
    "policy": (st.tuples(_POLICIES), {"policy"}),
    "base_policy": (st.tuples(_POLICIES), {"base_policy"}),
    "seed": (st.tuples(st.integers(0, 2**31)), {"seed"}),
    "faults": (st.tuples(st.sampled_from(["", "0.3:1", "0.5:0+0.7:1"])), {"faults"}),
    "fault": (st.tuples(st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 1)), {"faults"}),
    "nemesis": (
        st.tuples(st.sampled_from(["", "partition:start=0.3,dur=0.25,group=0-1"])),
        {"nemesis"},
    ),
    "arrivals": (
        st.tuples(st.sampled_from(["", "poisson:rate=0.01,horizon=1500"])), {"arrivals"}
    ),
    "machine": (
        st.tuples(st.sampled_from(["processors=4", "processors=8,topology=ring,replication=2"])),
        _MACHINE,
    ),
    "processors": (st.tuples(st.sampled_from([4, 8])), {"machine.processors"}),
    "topology": (st.tuples(st.sampled_from(TOPOLOGIES)), {"machine.topology"}),
    "scheduler": (st.tuples(st.sampled_from(SCHEDULERS)), {"machine.scheduler"}),
    "replication": (st.tuples(st.integers(1, 5)), {"machine.replication"}),
    "speedup_base": (st.tuples(st.integers(1, 8)), {"speedup_base_processors"}),
}

_CALLS = st.sampled_from(sorted(SETTERS)).flatmap(
    lambda name: SETTERS[name][0].map(lambda args: (name, args))
)


def _flat(spec: RunSpec) -> dict:
    """A RunSpec's fields, with the machine spelled out as its own."""
    flat = {f.name: getattr(spec, f.name) for f in fields(RunSpec) if f.name != "machine"}
    flat.update((f"machine.{f.name}", getattr(spec.machine, f.name)) for f in fields(MachineSpec))
    return flat


def _chain(calls) -> Experiment:
    builder = Experiment.workload(WORKLOAD)
    for name, args in calls:
        getattr(builder, name)(*args)
    return builder


class TestBuilderHoldsOnlyWhatItWasGiven:
    @settings(max_examples=150, deadline=None)
    @given(prefix=st.lists(_CALLS, max_size=6), call=_CALLS)
    def test_each_setter_changes_only_its_own_field(self, prefix, call):
        before = _chain(prefix).build()
        after = _chain(prefix + [call]).build()
        changed = {k for k, v in _flat(after).items() if _flat(before)[k] != v}
        assert changed <= SETTERS[call[0]][1]

    @given(overrides=st.dictionaries(
        st.sampled_from(["detector_delay", "hop_latency"]), st.floats(1.0, 500.0), min_size=1
    ))
    def test_cost_changes_only_the_cost_overrides(self, overrides):
        before = _chain([("processors", (8,)), ("topology", ("ring",))]).build()
        after = _chain([("processors", (8,)), ("topology", ("ring",))]).cost(**overrides).build()
        changed = {k for k, v in _flat(after).items() if _flat(before)[k] != v}
        assert changed == {"machine.cost"} and dict(after.machine.cost) == overrides

    @pytest.mark.parametrize("workload", [WORKLOAD, "fib-10", "prog:tak:7:4:2"])
    def test_runspec_owns_every_default(self, workload):
        assert Experiment.workload(workload).build() == RunSpec(
            WorkloadSpec.parse(workload)
        ).validate()


class TestExperimentBuilder:
    def test_chain_starts_on_the_class(self):
        spec = Experiment.workload(WORKLOAD).policy("splice").processors(2).build()
        assert isinstance(spec, RunSpec)
        assert spec.policy.name == "splice" and spec.machine.processors == 2

    def test_chain_starts_on_an_instance_too(self):
        spec = Experiment().workload(WORKLOAD).seed(3).build()
        assert spec.seed == 3

    def test_class_start_does_not_share_state(self):
        a = Experiment.workload(WORKLOAD).policy("splice")
        b = Experiment.workload(WORKLOAD)
        assert b.build().policy.name == "rollback"
        assert a.build().policy.name == "splice"

    def test_machine_knobs(self):
        spec = (
            Experiment.workload(WORKLOAD)
            .topology("ring")
            .scheduler("static")
            .replication(5)
            .cost(detector_delay=99.0)
            .build()
        )
        assert spec.machine.topology == "ring"
        assert spec.machine.scheduler == "static"
        assert spec.machine.replication == 5
        assert dict(spec.machine.cost) == {"detector_delay": 99.0}

    def test_fault_appends_and_faults_replaces(self):
        spec = (
            Experiment.workload(WORKLOAD).faults("0.3:1").fault(0.7, 0).build()
        )
        assert spec.faults.entries == ((0.3, 1), (0.7, 0))
        spec = Experiment.workload(WORKLOAD).fault(0.3, 1).faults("0.9:0").build()
        assert spec.faults.entries == ((0.9, 0),)

    def test_mixing_fault_modes_rejected(self):
        with pytest.raises(SpecError, match="mix"):
            Experiment.workload(WORKLOAD).fault(0.3, 1).fault(600.0, 2, mode="time")

    def test_fault_defaults_to_frac_even_after_time_schedule(self):
        # .fault() is documented as fraction-of-baseline by default; it
        # must not silently inherit time mode from an earlier .faults()
        with pytest.raises(SpecError, match="mix"):
            Experiment.workload(WORKLOAD).faults("600:2", mode="time").fault(0.9, 1)

    def test_workload_required(self):
        with pytest.raises(SpecError, match="workload"):
            Experiment().policy("splice").build()

    def test_build_validates(self):
        with pytest.raises(SpecError, match="unknown processor"):
            Experiment.workload(WORKLOAD).processors(2).fault(0.5, 7).build()

    def test_accepts_prebuilt_specs(self):
        spec = (
            Experiment()
            .workload(RunSpec.from_params({"workload": WORKLOAD, "seed": 0}).workload)
            .faults(FaultSpec.parse("0.5:1"))
            .build()
        )
        assert spec.faults.entries == ((0.5, 1),)


class TestSessionAndHandles:
    def test_run_returns_verified_handle(self):
        handle = Experiment.workload(WORKLOAD).policy("splice").processors(2).run()
        assert handle.completed and handle.verified is True
        assert handle.record["workload"] == WORKLOAD
        assert handle.spec.policy.name == "splice"
        assert handle.makespan == handle.result.makespan
        assert "makespan" in handle.to_json()

    def test_record_matches_point_runner_exactly(self):
        params = {
            "workload": WORKLOAD,
            "policy": "splice",
            "processors": 2,
            "seed": 5,
            "fault_frac": 0.5,
            "victim": 1,
        }
        handle = Session().run(RunSpec.from_params(params))
        assert handle.record == run_machine_point(params)

    def test_session_accepts_many_forms(self):
        session = Session()
        handles = [
            session.run(spec)
            for spec in (
                WORKLOAD,  # bare workload string
                Experiment.workload(WORKLOAD).policy("splice"),  # builder
                {"workload": WORKLOAD, "seed": 0},  # params dict
            )
        ]
        assert len(handles) == 3 and session.handles == handles
        doc = handles[1].spec.to_json()
        assert session.run(doc).spec == handles[1].spec  # JSON document

    def test_session_rejects_garbage(self):
        with pytest.raises(SpecError, match="cannot resolve"):
            Session().run(42)

    def test_session_validates_every_entry_form(self):
        # the same bad spec fails identically no matter how it arrives —
        # document, params dict, or raw RunSpec (the CLI path validates too)
        bad_params = {"workload": WORKLOAD, "seed": 0, "processors": 2,
                      "fault_frac": 0.5, "victim": 9}
        with pytest.raises(SpecError, match="unknown processor"):
            Session().run(bad_params)
        spec = RunSpec.from_params(bad_params)
        with pytest.raises(SpecError, match="unknown processor"):
            Session().run(spec)
        with pytest.raises(SpecError, match="unknown processor"):
            Session().run(spec.to_json())

    def test_baseline_shared_across_session_runs(self):
        session = Session()
        a = session.run(Experiment.workload(WORKLOAD).fault(0.4, 1).seed(0))
        b = session.run(Experiment.workload(WORKLOAD).fault(0.8, 1).seed(0))
        assert a.record["fault_free"] == b.record["fault_free"]
        assert a.baseline == b.baseline

    def test_collect_trace_session(self):
        handle = Session(collect_trace=True).run(
            Experiment.workload(WORKLOAD).fault(0.5, 1).seed(2)
        )
        assert len(handle.result.trace) > 0

    def test_speedup_run(self):
        handle = Session().run(
            Experiment.workload("wide:8:20").policy("none").processors(4)
            .speedup_base(1).seed(0)
        )
        assert handle.record["speedup"] > 1.0
