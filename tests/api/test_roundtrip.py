"""Property-style round-trip guarantees for every spec the repo uses.

Satellite guarantee of the RunSpec refit: every registered workload
name, every policy string, every fault-model example, and every value
that appears in a scenario-registry axis or base parses into a typed
spec, re-serializes canonically and re-parses to an equal dataclass;
every machine point's RunSpec survives the JSON round trip.  This is
what makes the string grammars and the typed layer interchangeable
everywhere.
"""

from __future__ import annotations

import pytest

from repro.api import (
    FaultSpec,
    NemesisSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)
from repro.exp import all_scenarios, expand
from repro.faults import all_models
from repro.workloads.suite import WORKLOADS


def _spec_roundtrip(cls, text, **kwargs):
    spec = cls.parse(text, **kwargs)
    rendered = spec.to_spec_str()
    assert cls.parse(rendered, **kwargs) == spec, (text, rendered)
    # canonical form is a fixed point
    assert cls.parse(rendered, **kwargs).to_spec_str() == rendered, text


SYNTHETIC_WORKLOADS = (
    "balanced:4:3:10",
    "balanced:3:2",
    "chain:24:20",
    "wide:48:120",
    "skewed:8:3:20",
    "random:404:100",
    "prog:tak:7:4:2",
    "prog:fib:11",
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_registered_workload_name_roundtrips(name):
    _spec_roundtrip(WorkloadSpec, name)


@pytest.mark.parametrize("text", SYNTHETIC_WORKLOADS)
def test_synthetic_workload_specs_roundtrip(text):
    _spec_roundtrip(WorkloadSpec, text)


@pytest.mark.parametrize(
    "text",
    (
        "none",
        "rollback",
        "splice",
        "replicated",
        "replicated:1",
        "replicated:5",
        "reversible",
        "incremental",
        "incremental:persist=volatile",
        "incremental:persist=durable",
        "incremental:persist=hybrid",
    ),
)
def test_policy_specs_roundtrip(text):
    _spec_roundtrip(PolicySpec, text)


@pytest.mark.parametrize(
    "text,mode",
    [("", "frac"), ("0.5:1", "frac"), ("0.5:1+0.9:4", "frac"),
     ("0.3:1+0.6:4", "frac"), ("600:2", "time"), ("600:2+900:1", "time")],
)
def test_fault_specs_roundtrip(text, mode):
    _spec_roundtrip(FaultSpec, text, mode=mode)


@pytest.mark.parametrize("name", sorted(all_models()))
def test_every_fault_model_example_roundtrips(name):
    _spec_roundtrip(NemesisSpec, all_models()[name].example)


def test_composed_nemesis_example_roundtrips():
    _spec_roundtrip(
        NemesisSpec,
        "crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1,reorder=0.2,span=40+jitter:max=25",
    )


# -- the scenario registry, exhaustively ---------------------------------------


def _axis_and_base_values(key):
    """Every value the registry uses for parameter ``key``."""
    values = set()
    for spec in all_scenarios().values():
        if spec.runner != "machine":
            continue
        if key in spec.base:
            values.add(spec.base[key])
        for axis, axis_values in spec.axes.items():
            if axis == key:
                values.update(axis_values)
    return sorted(values)


def test_registry_covers_something():
    assert _axis_and_base_values("workload") and _axis_and_base_values("policy")


@pytest.mark.parametrize("text", _axis_and_base_values("workload"))
def test_every_scenario_workload_value_roundtrips(text):
    _spec_roundtrip(WorkloadSpec, text)


@pytest.mark.parametrize("text", _axis_and_base_values("policy"))
def test_every_scenario_policy_value_roundtrips(text):
    _spec_roundtrip(PolicySpec, text)


@pytest.mark.parametrize("text", _axis_and_base_values("base_policy"))
def test_every_scenario_base_policy_value_roundtrips(text):
    _spec_roundtrip(PolicySpec, text)


@pytest.mark.parametrize("text", _axis_and_base_values("faults"))
def test_every_scenario_fault_value_roundtrips(text):
    _spec_roundtrip(FaultSpec, text, mode="frac")


@pytest.mark.parametrize("text", _axis_and_base_values("nemesis"))
def test_every_scenario_nemesis_value_roundtrips(text):
    _spec_roundtrip(NemesisSpec, text)


@pytest.mark.parametrize(
    "name",
    sorted(s.name for s in all_scenarios().values() if s.runner == "machine"),
)
def test_every_machine_point_runspec_roundtrips_and_is_canonical(name):
    spec = all_scenarios()[name]
    for point in expand(spec):
        runspec = RunSpec.from_params(point.params)
        assert RunSpec.from_json(runspec.to_json()) == runspec
        # canonicalization must not rewrite the registry's strings — this
        # is what makes the sweep output byte-identical pre/post refit
        assert runspec.workload.to_spec_str() == point.params["workload"]
        assert runspec.policy.to_spec_str() == point.params.get("policy", "rollback")
        if point.params.get("nemesis"):
            assert runspec.nemesis.to_spec_str() == point.params["nemesis"]
