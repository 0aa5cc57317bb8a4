"""Tests for the typed spec dataclasses and their grammars."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    RUNSPEC_SCHEMA,
    Experiment,
    FaultSpec,
    MachineSpec,
    NemesisSpec,
    PolicySpec,
    RunSpec,
    SpecError,
    WorkloadSpec,
)
from repro.api.specs import MACHINE_PARAMS, POLICY_PARAMS
from repro.lang.programs import PROGRAMS
from repro.errors import ReproError


class TestWorkloadSpec:
    def test_named_suite_entry(self):
        spec = WorkloadSpec.parse("fib-10")
        assert spec.kind == "named" and spec.name == "fib-10"
        assert spec.to_spec_str() == "fib-10"
        factory, size = spec.build()
        assert size is None and factory().name == "fib-10"

    def test_tree_specs(self):
        spec = WorkloadSpec.parse("balanced:3:2:10")
        assert spec.kind == "balanced" and spec.args == (3, 2, 10)
        factory, size = spec.build()
        assert size == 15 and factory().name == "balanced:3:2:10"
        assert WorkloadSpec.parse("chain:7:5").build()[1] == 7

    def test_prog_spec(self):
        spec = WorkloadSpec.parse("prog:tak:7:4:2")
        assert spec.kind == "prog" and spec.name == "tak" and spec.args == (7, 4, 2)
        assert spec.to_spec_str() == "prog:tak:7:4:2"
        factory, size = WorkloadSpec.parse("prog:fib:6").build()
        assert size is None and factory().name == "prog:fib:6"

    def test_random_spec(self):
        spec = WorkloadSpec.parse("random:404:100")
        assert spec.args == (404, 100)
        factory, size = spec.build()
        assert size == 100 and factory().name == "random:404:100"

    def test_unknown_kind_is_structured(self):
        with pytest.raises(SpecError) as exc_info:
            WorkloadSpec.parse("nope:1:2")
        err = exc_info.value
        assert err.field == "workload" and err.value == "nope:1:2"
        assert "balanced" in err.allowed and "fib-10" in err.allowed
        assert isinstance(err, ReproError) and isinstance(err, ValueError)

    def test_bad_int_arg_names_token_and_position(self):
        with pytest.raises(SpecError) as exc_info:
            WorkloadSpec.parse("balanced:3:x:10")
        err = exc_info.value
        assert err.value == "x"
        assert err.position == len("balanced:3:")

    def test_wrong_arity(self):
        with pytest.raises(SpecError, match="takes"):
            WorkloadSpec.parse("random:1:2:3")
        with pytest.raises(SpecError, match="takes"):
            WorkloadSpec.parse("balanced:")

    def test_unknown_program(self):
        with pytest.raises(SpecError) as exc_info:
            WorkloadSpec.parse("prog:nosuch:3")
        assert "fib" in exc_info.value.allowed

    @pytest.mark.parametrize(
        "text", ["prog:tak:1", "prog:tak:7:4:2:9", "prog:fib:1:2", "prog:qsort:3"]
    )
    def test_program_arity_is_checked_at_parse(self, text):
        with pytest.raises(SpecError, match="takes [013] integer args") as exc_info:
            WorkloadSpec.parse(text)
        err = exc_info.value
        name = text.split(":")[1]
        assert err.field == "workload.prog" and err.spec == text
        assert err.position == len(f"prog:{name}:") and text[err.position:] == err.value
        # documents and the builder go through the same parse
        with pytest.raises(SpecError, match="integer args"):
            Experiment.workload(text)
        with pytest.raises(SpecError, match="integer args"):
            RunSpec.from_json({"schema": RUNSPEC_SCHEMA, "workload": text})

    def test_every_program_builds_from_its_defaults_and_from_its_arity(self):
        from string import Formatter

        for name, program in PROGRAMS.items():
            assert WorkloadSpec.parse(f"prog:{name}").build()[0]().program.main is not None
            # the defaults fill exactly the template's fields, so their
            # count is the arity a spec is checked against
            fields = {f for _, f, _, _ in Formatter().parse(program.source_template)} - {None}
            assert fields == {str(i) for i in range(len(program.default_args))}
            if program.spec_arity:
                assert program.spec_arity == len(fields)
                text = ":".join([f"prog:{name}", *map(str, program.default_args)])
                assert WorkloadSpec.parse(text).build()[0]().program.main is not None
            else:
                assert name == "qsort"


class TestPolicySpec:
    def test_simple_policies(self):
        for name in ("none", "rollback", "splice"):
            spec = PolicySpec.parse(name)
            assert spec == PolicySpec(name) and spec.to_spec_str() == name
            assert spec.build().name == name

    def test_replicated_with_and_without_k(self):
        assert PolicySpec.parse("replicated:5").build().k == 5
        # bare `replicated` defers k to the machine's replication factor
        assert PolicySpec.parse("replicated").build()._k is None
        assert PolicySpec.parse("replicated").to_spec_str() == "replicated"
        assert PolicySpec.parse("replicated:3").to_spec_str() == "replicated:3"

    def test_bare_replicated_follows_machine_replication(self):
        from repro.api import Experiment

        def accepted(k):
            handle = (
                Experiment.workload("balanced:2:2:5")
                .policy("replicated")
                .replication(k)
                .processors(5)
                .run()
            )
            assert handle.completed
            return handle.record["metrics"]["tasks_accepted"]

        # replicated work scales with the *machine's* replication factor,
        # so .replication(k) governs the policy as documented
        assert accepted(5) > accepted(3) > accepted(1)

    def test_unknown_policy_lists_allowed(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("splicy")
        assert "rollback" in exc_info.value.allowed

    def test_simple_policy_rejects_parameter(self):
        with pytest.raises(SpecError, match="takes no parameter"):
            PolicySpec.parse("rollback:3")

    def test_bad_k(self):
        with pytest.raises(SpecError, match="expected int"):
            PolicySpec.parse("replicated:many")

    def test_reversible_is_a_simple_policy(self):
        spec = PolicySpec.parse("reversible")
        assert spec == PolicySpec("reversible")
        assert spec.to_spec_str() == "reversible"
        assert spec.build().name == "reversible"
        with pytest.raises(SpecError, match="takes no parameter"):
            PolicySpec.parse("reversible:3")

    def test_incremental_with_and_without_persist(self):
        bare = PolicySpec.parse("incremental")
        assert bare.persist is None and bare.to_spec_str() == "incremental"
        # bare `incremental` defers to the policy default, volatile
        assert bare.build().persist == "volatile"
        for mode in ("volatile", "durable", "hybrid"):
            text = f"incremental:persist={mode}"
            spec = PolicySpec.parse(text)
            assert spec.persist == mode and spec.to_spec_str() == text
            assert spec.build().persist == mode

    def test_incremental_unknown_parameter_diagnostics(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("incremental:durability=on")
        err = exc_info.value
        assert err.field == "policy.incremental"
        assert err.value == "durability"
        assert err.allowed == ("persist",)
        assert err.position == len("incremental:")

    def test_incremental_bad_persist_value_diagnostics(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("incremental:persist=bogus")
        err = exc_info.value
        assert err.field == "policy.persist"
        assert err.value == "bogus"
        assert err.allowed == ("volatile", "durable", "hybrid")
        assert err.position == len("incremental:persist=")

    def test_unknown_policy_lists_parameterized_forms(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("healing")
        allowed = exc_info.value.allowed
        assert "reversible" in allowed
        assert "incremental[:persist=MODE]" in allowed


class TestFaultSpec:
    def test_parse_frac_schedule(self):
        spec = FaultSpec.parse("0.5:1+0.9:4")
        assert spec.entries == ((0.5, 1), (0.9, 4)) and spec.mode == "frac"
        assert spec.to_spec_str() == "0.5:1+0.9:4"

    def test_parse_time_schedule(self):
        spec = FaultSpec.parse("600:2", mode="time")
        assert spec.entries == ((600.0, 2),) and spec.mode == "time"
        # non-default modes are self-describing in the string form, so a
        # bare re-parse cannot silently demote absolute times to fractions
        assert spec.to_spec_str() == "time:600:2"
        assert FaultSpec.parse(spec.to_spec_str()) == spec

    def test_mode_prefix_overrides_parse_default(self):
        spec = FaultSpec.parse("time:600:2")
        assert spec.mode == "time" and spec.entries == ((600.0, 2),)
        assert FaultSpec.parse("frac:0.5:1", mode="time").mode == "frac"

    def test_empty_schedule_normalizes_mode(self):
        assert FaultSpec.parse("", mode="time") == FaultSpec.parse("")
        assert FaultSpec.parse("", mode="time").to_spec_str() == ""

    def test_empty_is_falsy(self):
        assert not FaultSpec.parse("")
        assert FaultSpec.parse("0.5:1")

    def test_malformed_items(self):
        with pytest.raises(SpecError, match="must be"):
            FaultSpec.parse("nope")
        with pytest.raises(SpecError, match="must be"):
            FaultSpec.parse("600", mode="time")
        with pytest.raises(SpecError, match="expected float"):
            FaultSpec.parse("x:1")
        with pytest.raises(SpecError, match="expected int"):
            FaultSpec.parse("0.5:n")

    def test_error_position_points_at_bad_item(self):
        with pytest.raises(SpecError) as exc_info:
            FaultSpec.parse("0.5:1+bad")
        assert exc_info.value.position == len("0.5:1+")

    def test_unknown_mode(self):
        with pytest.raises(SpecError, match="unknown fault mode"):
            FaultSpec.parse("0.5:1", mode="relative")

    def test_exponent_floats_round_trip(self):
        # repr(1e16) is '1e+16'; the '+' must not collide with the
        # entry separator
        spec = FaultSpec(((1e16, 1),), "time")
        assert FaultSpec.parse(spec.to_spec_str()) == spec

    def test_schedule_frac_scales_and_clamps(self):
        schedule = FaultSpec.parse("0.5:1+0.001:2").schedule(100.0)
        assert sorted((f.time, f.node) for f in schedule) == [(1.0, 2), (50.0, 1)]

    def test_schedule_time_is_absolute(self):
        schedule = FaultSpec.parse("600:2", mode="time").schedule()
        assert [(f.time, f.node) for f in schedule] == [(600.0, 2)]

    def test_schedule_frac_requires_baseline(self):
        with pytest.raises(SpecError, match="baseline"):
            FaultSpec.parse("0.5:1").schedule()

    def test_nan_is_not_a_time(self):
        # max(1.0, nan * base) == 1.0 would silently place the crash at t=1
        for text in ("nan:1", "0.5:1+NaN:2"):
            with pytest.raises(SpecError, match="expected float") as exc_info:
                FaultSpec.parse(text)
            assert exc_info.value.field == "faults.when"
        with pytest.raises(SpecError, match="fault_frac"):
            RunSpec.from_params({"workload": "fib-10", "seed": 0, "fault_frac": float("nan")})
        assert FaultSpec.parse("inf:1", mode="time").entries == ((float("inf"), 1),)


class TestNemesisSpec:
    def test_parse_composition_preserves_clause_order(self):
        spec = NemesisSpec.parse("crash:at=0.4,node=1+jitter:max=25")
        assert [c.model for c in spec.clauses] == ["crash", "jitter"]

    def test_integral_floats_round_trip_bytewise(self):
        text = "chaos:drop=0.05,dup=0.1,reorder=0.2,span=40"
        assert NemesisSpec.parse(text).to_spec_str() == text

    def test_node_groups(self):
        spec = NemesisSpec.parse("partition:start=0.3,dur=0.25,group=0-1-3")
        assert dict(spec.clauses[0].params)["group"] == (0, 1, 3)
        assert spec.to_spec_str() == "partition:start=0.3,dur=0.25,group=0-1-3"

    def test_build_scales_fraction_params(self):
        spec = NemesisSpec.parse("crash:at=0.5,node=1")
        crash = list(spec.build(200.0))[0]
        assert [(f.time, f.node) for f in crash.schedule] == [(100.0, 1)]

    def test_empty(self):
        assert not NemesisSpec.parse("")
        assert not NemesisSpec.parse("  ")
        assert len(NemesisSpec.parse("").build(100.0)) == 0

    def test_unknown_model_is_structured(self):
        with pytest.raises(SpecError) as exc_info:
            NemesisSpec.parse("crash:at=0.4,node=1+nosuch:x=1")
        err = exc_info.value
        assert err.value == "nosuch" and "partition" in err.allowed
        assert err.position == len("crash:at=0.4,node=1+")

    def test_duplicate_key_is_an_error_not_last_one_wins(self):
        text = "chaos:drop=0.1,drop=0.5"
        with pytest.raises(SpecError, match="duplicate parameter") as exc_info:
            NemesisSpec.parse(text)
        assert exc_info.value.field == "nemesis.drop"
        assert exc_info.value.position == len("chaos:drop=0.1,")

    def test_nan_is_rejected_and_inf_still_round_trips(self):
        with pytest.raises(SpecError, match="expected float") as exc_info:
            NemesisSpec.parse("crash:at=nan,node=1")
        assert exc_info.value.position == len("crash:at=")
        # inf is chaos:dur's declared default and stays legal
        spec = NemesisSpec.parse("chaos:drop=0.1,dur=inf")
        assert spec.to_spec_str() == "chaos:drop=0.1,dur=inf"
        assert NemesisSpec.parse(spec.to_spec_str()) == spec


class TestMachineSpec:
    def test_defaults(self):
        spec = MachineSpec.parse("")
        assert spec == MachineSpec()
        assert spec.to_spec_str() == ""

    def test_parse_fields_and_cost(self):
        spec = MachineSpec.parse(
            "processors=8,topology=ring,cost.detector_delay=400"
        )
        assert spec.processors == 8 and spec.topology == "ring"
        assert dict(spec.cost) == {"detector_delay": 400.0}
        assert MachineSpec.parse(spec.to_spec_str()) == spec

    def test_unknown_field_topology_scheduler_cost(self):
        with pytest.raises(SpecError, match="unknown parameter 'cpus'"):
            MachineSpec.parse("cpus=8")
        with pytest.raises(SpecError) as exc_info:
            MachineSpec.parse("topology=tube")
        assert "hypercube" in exc_info.value.allowed
        with pytest.raises(SpecError, match="bad value 'fifo'"):
            MachineSpec.parse("scheduler=fifo")
        with pytest.raises(SpecError, match="unknown parameter 'cost.latency'"):
            MachineSpec.parse("cost.latency=3")

    def test_to_config(self):
        config = MachineSpec.parse("processors=6,cost.hop_latency=9").to_config(seed=4)
        assert config.n_processors == 6 and config.seed == 4
        assert config.cost.hop_latency == 9.0

    def test_from_params_rejects_unknown_cost(self):
        with pytest.raises(SpecError, match="unknown parameter 'cost.latency'"):
            MachineSpec.from_params({"cost": {"latency": 1.0}})

    def test_from_params_coerces_and_guards_cost_values(self):
        spec = MachineSpec.from_params({"cost": {"detector_delay": "400"}})
        assert dict(spec.cost) == {"detector_delay": 400.0}
        with pytest.raises(SpecError, match="expected float"):
            MachineSpec.from_params({"cost": {"detector_delay": "abc"}})
        with pytest.raises(SpecError, match="mapping"):
            MachineSpec.from_params({"cost": 5})

    def test_json_roundtrip(self):
        spec = MachineSpec.parse("processors=8,scheduler=static,cost.ack_timeout=100")
        assert MachineSpec.from_json(spec.to_json()) == spec

    def test_duplicate_key_is_an_error_not_last_one_wins(self):
        text = "processors=4,processors=8"
        with pytest.raises(SpecError, match="duplicate parameter") as exc_info:
            MachineSpec.parse(text)
        assert exc_info.value.field == "machine.processors"
        assert exc_info.value.position == len("processors=4,")

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"processors": 4.7}, "machine.processors"),  # was silently 4
            ({"processors": True}, "machine.processors"),  # was silently 1
            ({"replication": "three"}, "machine.replication"),
            ({"topology": "bogus"}, "machine.topology"),  # was accepted until validate()
            ({"scheduler": 3}, "machine.scheduler"),
            ({"cost": {"hop_latency": float("nan")}}, "machine.cost.hop_latency"),
        ],
    )
    def test_from_json_does_not_coerce_silently(self, doc, field):
        with pytest.raises(SpecError, match="bad value") as exc_info:
            MachineSpec.from_json(doc)
        assert exc_info.value.field == field
        assert "\n" not in str(exc_info.value)

    def test_from_json_accepts_what_the_string_grammar_accepts(self):
        # integral floats and numeric strings say the same thing in both forms
        assert MachineSpec.from_json({"processors": 8.0, "replication": "5"}) == (
            MachineSpec.parse("processors=8,replication=5")
        )


class TestRunSpec:
    PARAMS = {
        "workload": "balanced:3:2:10",
        "policy": "splice",
        "processors": 4,
        "seed": 11,
        "faults": "0.5:1",
        "nemesis": "jitter:max=25",
        "base_policy": "rollback",
    }

    def test_from_params(self):
        spec = RunSpec.from_params(self.PARAMS)
        assert spec.workload.to_spec_str() == "balanced:3:2:10"
        assert spec.policy.name == "splice"
        assert spec.seed == 11
        assert spec.faults.entries == ((0.5, 1),)
        assert spec.base_policy == PolicySpec("rollback")

    def test_from_params_folds_fault_frac_and_victim(self):
        spec = RunSpec.from_params(
            {"workload": "balanced:2:2:5", "seed": 0, "faults": "0.3:2",
             "fault_frac": 0.7, "victim": 1}
        )
        assert spec.faults.entries == ((0.3, 2), (0.7, 1))

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown run parameter"):
            RunSpec.from_params({"workload": "fib-10", "seed": 0, "polcy": "splice"})

    def test_from_params_honors_time_mode_fault_prefix(self):
        # a self-describing "time:" schedule must not be relabeled as
        # fractions (which would misplace faults by a factor of the
        # baseline makespan)
        spec = RunSpec.from_params(
            {"workload": "balanced:2:2:5", "seed": 0, "faults": "time:600:2"}
        )
        assert spec.faults.mode == "time"
        assert spec.faults.entries == ((600.0, 2),)

    def test_from_params_rejects_time_faults_mixed_with_fault_frac(self):
        with pytest.raises(SpecError, match="time-mode"):
            RunSpec.from_params(
                {"workload": "balanced:2:2:5", "seed": 0,
                 "faults": "time:600:2", "fault_frac": 0.5}
            )

    def test_from_params_requires_workload_and_seed(self):
        with pytest.raises(SpecError, match="workload"):
            RunSpec.from_params({"seed": 0})
        with pytest.raises(SpecError, match="seed"):
            RunSpec.from_params({"workload": "fib-10"})

    def test_json_roundtrip(self):
        spec = RunSpec.from_params(self.PARAMS)
        doc = spec.to_json()
        assert doc["schema"] == RUNSPEC_SCHEMA
        assert RunSpec.from_json(doc) == spec

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(SpecError, match="schema"):
            RunSpec.from_json({"schema": "repro-runspec/99", "workload": "fib-10"})

    def test_from_json_rejects_mode_prefix_disagreement(self):
        base = RunSpec.from_params({"workload": "fib-10", "seed": 0}).to_json()
        with pytest.raises(SpecError, match="disagrees"):
            RunSpec.from_json(
                {**base, "faults": {"mode": "frac", "schedule": "time:600:2"}}
            )
        # agreement (prefix or bare) loads fine
        for schedule in ("time:600:2", "600:2"):
            spec = RunSpec.from_json(
                {**base, "faults": {"mode": "time", "schedule": schedule}}
            )
            assert spec.faults.mode == "time"

    def test_from_json_rejects_typod_keys(self):
        # a hand-edited document must not silently run a different
        # experiment than written
        base = RunSpec.from_params({"workload": "fib-10", "seed": 0}).to_json()
        with pytest.raises(SpecError, match="nemessis"):
            RunSpec.from_json({**base, "nemessis": "crash:at=0.5,node=1"})
        with pytest.raises(SpecError, match="procesors"):
            RunSpec.from_json({**base, "machine": {"procesors": 64}})

    def test_from_json_malformed_documents_raise_spec_errors(self):
        # every malformed shape surfaces as a structured SpecError, never
        # a raw KeyError/AttributeError/TypeError traceback
        for payload in (
            {"schema": RUNSPEC_SCHEMA},  # missing workload
            [],  # not an object
            {"schema": RUNSPEC_SCHEMA, "workload": "fib-10", "faults": "0.5:1"},
            {"schema": RUNSPEC_SCHEMA, "workload": "fib-10", "seed": "eleven"},
        ):
            with pytest.raises(SpecError):
                RunSpec.from_json(payload)

    @pytest.mark.parametrize(
        "key,value",
        [("seed", 1.9), ("seed", True), ("speedup_base_processors", 2.5)],
    )
    def test_from_json_does_not_coerce_run_level_integers(self, key, value):
        # a typo'd document must not run a different experiment than it says
        base = RunSpec.from_params({"workload": "fib-10", "seed": 0}).to_json()
        with pytest.raises(SpecError, match="expected int") as exc_info:
            RunSpec.from_json({**base, key: value})
        assert exc_info.value.field == key
        assert RunSpec.from_json({**base, key: 3.0}) == RunSpec.from_json({**base, key: 3})

    def test_canonical_json_is_byte_stable(self):
        spec = RunSpec.from_params(self.PARAMS)
        assert spec.canonical_json() == RunSpec.from_json(spec.to_json()).canonical_json()

    def test_validate_catches_bad_fault_node(self):
        spec = RunSpec.from_params(
            {"workload": "fib-10", "seed": 0, "processors": 4, "fault_frac": 0.5,
             "victim": 9}
        )
        with pytest.raises(SpecError, match="unknown processor"):
            spec.validate()

    def test_validate_catches_config_cross_field(self):
        spec = RunSpec.from_params(
            {"workload": "fib-10", "seed": 0, "processors": 6, "topology": "hypercube"}
        )
        with pytest.raises(SpecError, match="power-of-two"):
            spec.validate()

    def test_validate_catches_nemesis_model_errors(self):
        spec = RunSpec.from_params(
            {"workload": "fib-10", "seed": 0, "processors": 4,
             "nemesis": "partition:start=0.3,dur=0.2,group=0-9"}
        )
        with pytest.raises(SpecError):
            spec.validate()


# -- hostile strings: parse-then-build succeeds or raises SpecError, nothing else ----

#: Scalars a positional grammar may meet: in range, below every minimum,
#: past the tree-size limit, deeper than the interpreter's stack, and not
#: integers at all (``int`` itself accepts padding, a sign and any Unicode digit).
_SCALARS = (
    "-1", "0", "1", "2", "3", "7", "50", "4095", "300000", "9" * 25,
    "", "x", "1.5", " 4", "+2", "1e3", "٣", "nan", "inf", "0.5",
)
_scalars = st.lists(st.sampled_from(_SCALARS), max_size=4)
_WORKLOAD_HEADS = (
    "balanced", "chain", "wide", "skewed", "random", "prog", "prog:nosuch", "fib-10", "nope", "",
) + tuple(f"prog:{name}" for name in PROGRAMS)
_POLICY_BODIES = (
    "0", "-1", "3", "x", "", "k=3", "persist=durable", "persist=bogus", "persist",
    "persist=hybrid,persist=hybrid",
)


def _refused_or(build, text):
    try:
        return build(text)
    except SpecError:
        return None  # the one admissible failure; anything else propagates


class TestHostileStrings:
    @given(st.sampled_from(_WORKLOAD_HEADS), _scalars)
    def test_workload_strings_build_or_are_refused(self, head, args):
        from repro.workloads.trees import MAX_TREE_TASKS

        built = _refused_or(lambda t: WorkloadSpec.parse(t).build(), ":".join([head] + args))
        if built is not None and built[1] is not None:
            assert built[1] <= MAX_TREE_TASKS
        if built is not None and head.startswith("prog:"):
            built[0]()  # a program is instantiated by the factory: an accepted arity compiles

    @given(
        st.sampled_from(tuple(POLICY_PARAMS) + ("healing", "")),
        st.lists(st.sampled_from(_POLICY_BODIES), max_size=2),
    )
    def test_policy_strings_build_or_are_refused(self, name, bodies):
        policy = _refused_or(lambda t: PolicySpec.parse(t).build(), ":".join([name] + bodies))
        assert policy is None or policy.name == name

    @given(
        st.sampled_from(("", "time:", "frac:", "bogus:")),
        st.lists(st.tuples(st.sampled_from(_SCALARS), st.sampled_from(_SCALARS)), max_size=3),
    )
    def test_fault_strings_build_or_are_refused(self, prefix, entries):
        text = prefix + "+".join(f"{when}:{node}" for when, node in entries)
        _refused_or(lambda t: FaultSpec.parse(t).schedule(100.0), text)

    @pytest.mark.parametrize(
        "parse,text,message,field,value,allowed,position,spec",
        [
            # a program: no name, an unknown one, a wrong arity, a bad argument
            (WorkloadSpec.parse, "prog", "prog workload needs a program name "
             "(prog:NAME:ARG:...)", "workload.prog", "prog", None, 0, "prog"),
            (WorkloadSpec.parse, "prog::3", "prog workload needs a program name "
             "(prog:NAME:ARG:...)", "workload.prog", "prog::3", None, 0, "prog::3"),
            (WorkloadSpec.parse, "prog:nosuch:3", "unknown program 'nosuch' (allowed: binomial, "
             "fib, matvec, nfib, nqueens, qsort, sum-range, tak, tree-sum)", "workload.prog",
             "nosuch", ("binomial", "fib", "matvec", "nfib", "nqueens", "qsort", "sum-range",
                        "tak", "tree-sum"), 5, "prog:nosuch:3"),
            (WorkloadSpec.parse, "prog:tak:1", "program 'tak' takes 3 integer args "
             "(or none, for its defaults), got 1", "workload.prog", "1", None, 9, "prog:tak:1"),
            (WorkloadSpec.parse, "prog:tak:7:x:2", "bad value 'x' for workload.args "
             "(expected int)", "workload.args", "x", None, 11, "prog:tak:7:x:2"),
            # a shape: a wrong arity (one past the end of a bare kind), a refusal
            (WorkloadSpec.parse, "random:1:2:3", "workload kind 'random' takes 2 integer args, "
             "got 3", "workload.random", "1:2:3", None, 7, "random:1:2:3"),
            (WorkloadSpec.parse, "chain", "workload kind 'chain' takes 1..2 integer args, got 0",
             "workload.chain", "", None, 6, "chain"),
            (WorkloadSpec.parse, "random:1:0", "workload kind 'random': target_tasks must be "
             ">= 1", "workload.random", "0", None, 9, "random:1:0"),
            (WorkloadSpec.parse, "balanced:50:50:1", "workload kind 'balanced': asks for more "
             "than 262144 tasks", "workload.balanced", "50", None, 9, "balanced:50:50:1"),
            # a fault entry: no ':', an empty item, a bad `when` or `node`
            (lambda t: FaultSpec.parse(t, mode="time"), "300", "fault must be TIME:NODE "
             "(e.g. 600:2), got '300'", "faults", "300", None, 0, "300"),
            (FaultSpec.parse, "0.5:1+0.7", "fault must be FRAC:NODE (e.g. 0.5:1), got '0.7'",
             "faults", "0.7", None, 6, "0.5:1+0.7"),
            (FaultSpec.parse, "0.5:1++0.6:2", "fault must be FRAC:NODE (e.g. 0.5:1), got ''",
             "faults", "", None, 6, "0.5:1++0.6:2"),
            (FaultSpec.parse, "0.5:1+y:2", "bad value 'y' for faults.when (expected float)",
             "faults.when", "y", None, 6, "0.5:1+y:2"),
            # the mode prefix is not part of the spec a position indexes
            (FaultSpec.parse, "time:300:x", "bad value 'x' for faults.node (expected int)",
             "faults.node", "x", None, 4, "300:x"),
            # a second nemesis clause: a bad value, an unknown or empty model,
            # missing parameters (positioned one past its name's ':')
            (NemesisSpec.parse, "crash:at=0.4,node=1+chaos:drop=x", "bad value 'x' for "
             "nemesis.drop (expected float)", "nemesis.drop", "x", None, 31,
             "crash:at=0.4,node=1+chaos:drop=x"),
            (NemesisSpec.parse, "crash:at=0.4,node=1+nosuch:x=1", "unknown fault model "
             "'nosuch' (allowed: crash, cascade, partition, chaos, grayfail, jitter)", "nemesis",
             "nosuch", ("crash", "cascade", "partition", "chaos", "grayfail", "jitter"), 20,
             "crash:at=0.4,node=1+nosuch:x=1"),
            (NemesisSpec.parse, "crash:at=0.4,node=1+", "unknown fault model '' (allowed: "
             "crash, cascade, partition, chaos, grayfail, jitter)", "nemesis", "",
             ("crash", "cascade", "partition", "chaos", "grayfail", "jitter"), 20,
             "crash:at=0.4,node=1+"),
            (NemesisSpec.parse, "crash:at=0.4,node=1+crash", "nemesis.crash missing "
             "parameters: ['at', 'node']", "nemesis.crash", ["at", "node"], None, 26,
             "crash:at=0.4,node=1+crash"),
        ],
    )
    def test_a_refusal_is_pinned_in_full(
        self, parse, text, message, field, value, allowed, position, spec
    ):
        with pytest.raises(SpecError) as exc_info:
            parse(text)
        err = exc_info.value
        assert (err.field, err.value, err.allowed, err.position, err.spec) == (
            field, value, allowed, position, spec
        )
        assert str(err) == f"{message} at position {position} in {spec!r}"
    @pytest.mark.parametrize(
        "text,position",
        [
            ("balanced:0:0:0", len("balanced:0:")),
            ("balanced:-1:2:3", len("balanced:")),
            ("chain:-1:5", len("chain:")),
            ("wide:0:0", len("wide:")),
            ("random:1:0", len("random:1:")),
            ("balanced:50:50:1", len("balanced:")),  # too many tasks: points at the shape
            ("chain:262145", len("chain:")),
        ],
    )
    def test_workload_shape_is_checked_before_anything_is_built(self, text, position):
        with pytest.raises(SpecError) as exc_info:
            WorkloadSpec.parse(text)
        err = exc_info.value
        assert err.field == f"workload.{text.partition(':')[0]}"
        assert err.position == position and err.spec == text

    def test_the_size_limit_is_arithmetic_and_clears_the_benchmark(self):
        from repro.workloads.trees import MAX_TREE_TASKS

        assert MAX_TREE_TASKS >= 8 * 16383  # the benchmark's largest tree, with room
        WorkloadSpec.parse(f"chain:{MAX_TREE_TASKS}")  # parses; nothing is built to check
        for huge in ("balanced:1000000000:2", "balanced:5:" + "9" * 40, "skewed:99999999:3"):
            with pytest.raises(SpecError, match="more than"):
                WorkloadSpec.parse(huge)

    @pytest.mark.parametrize("text", ["replicated:0", "replicated:-1"])
    def test_replication_factor_below_one_is_refused_at_parse(self, text):
        with pytest.raises(SpecError, match=">= 1") as exc_info:
            PolicySpec.parse(text)
        err = exc_info.value
        assert err.field == "policy.k" and err.position == len("replicated:")
        # documents and the builder go through the same parse
        with pytest.raises(SpecError):
            Experiment.workload("fib-10").policy(text)


#: JSON values, with the tokens the grammars know mixed in so that some
#: documents get past the first check and fail (or load) deeper down.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.sampled_from([
        RUNSPEC_SCHEMA, "balanced:3:2:10", "prog:tak:7:4:2", "splice", "replicated:3",
        "0.5:1", "time:600:2", "frac", "time", "chaos:drop=0.1", "poisson:rate=1,horizon=9",
        "torus", "static", "8", "-1", "nan",
    ]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["mode", "schedule", "hop_latency", "x"]), inner, max_size=3),
    max_leaves=6,
)
_RUN_KEYS = (
    "schema", "workload", "policy", "machine", "seed", "faults", "nemesis", "arrivals",
    "base_policy", "speedup_base_processors",
)
_MACHINE_KEYS = tuple(k for k in MACHINE_PARAMS if not k.startswith("cost.")) + ("cost",)
_COST_FIELDS = tuple(k[len("cost."):] for k in MACHINE_PARAMS if k.startswith("cost."))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_RUN_KEYS), _json_values, max_size=4),
    st.dictionaries(st.sampled_from(_MACHINE_KEYS), _json_values, max_size=3),
    st.dictionaries(st.sampled_from(_COST_FIELDS), _json_values, max_size=2),
)
def test_hostile_documents_load_or_raise_spec_error(run_over, machine_over, cost_over):
    """Arbitrary JSON values under the document keys either load or raise
    ``SpecError`` — never another exception."""
    base = RunSpec.from_params({"workload": "balanced:3:2:10", "seed": 0}).to_json()
    machine = {**base["machine"], **machine_over}
    if cost_over:
        machine["cost"] = cost_over
    for load, doc in (
        (RunSpec.from_json, {**base, **run_over}),
        (RunSpec.from_json, {**base, "machine": machine}),
        (MachineSpec.from_json, machine),
    ):
        try:
            load(doc)
        except SpecError:
            pass
