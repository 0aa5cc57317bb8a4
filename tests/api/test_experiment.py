"""Tests for the Experiment builder, Session runner, and RunHandle."""

from __future__ import annotations

import pytest

from repro.api import Experiment, FaultSpec, RunSpec, Session, SpecError
from repro.exp.points import run_machine_point

WORKLOAD = "balanced:2:2:5"


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
