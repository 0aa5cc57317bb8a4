"""A replicate that never reads its seed is run once.

A machine run is *seed-blind* when it creates no stream on its
machine's ``RngHub`` and arms no load generator; a point is blind when
its run and its fault-free baseline both were.  The ``machine`` point
runner answers every later replicate of a blind cell from the cell's
first record.  These tests pin that the rule is sound (a blind point's
record does not depend on its seed), which registered points it covers,
and what it saves.
"""

from __future__ import annotations

import random
from collections import Counter
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import session
from repro.api.session import execute
from repro.api.specs import RunSpec
from repro.config import SCHEDULERS
from repro.errors import SpecError
from repro.exp import all_scenarios, get_scenario, run_scenario, with_replications
from repro.exp import points
from repro.exp.scenario import expand
from repro.faults.generate import GENERATABLE_MODELS, random_clause
from repro.sim.machine import Machine


def _but_seed(record):
    return {key: value for key, value in record.items() if key != "seed"}


@pytest.fixture
def cold(monkeypatch):
    """A fresh memo and baseline cache, and a count of ``Machine.run`` calls."""
    monkeypatch.setattr(points, "_seed_blind_records", {})
    session._baseline.cache_clear()
    calls = Counter()
    real_run = Machine.run

    def counting_run(self, *args, **kwargs):
        calls["run"] += 1
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting_run)
    yield calls
    session._baseline.cache_clear()


# -- soundness over the registry ---------------------------------------------------


@pytest.fixture(scope="module")
def registered():
    """``(scenario, point, spec, handle)`` for every registered machine point."""
    return [
        (name, point, spec, execute(spec))
        for name, scenario in sorted(all_scenarios().items())
        if scenario.runner == "machine"
        for point in expand(scenario)
        for spec in [RunSpec.from_params(point.params)]
    ]


def test_a_blind_point_gives_the_same_record_under_another_seed(registered):
    blind = [(spec, handle) for _, _, spec, handle in registered if handle.seed_blind]
    assert blind
    for spec, handle in blind:
        other = execute(replace(spec, seed=spec.seed + 1)).record
        assert other["seed"] == spec.seed + 1
        assert _but_seed(other) == _but_seed(handle.record), spec.to_json()


def test_the_blind_points_are_pinned(registered):
    """A change that makes a scenario read its seed shows in this diff."""
    blind = sum(handle.seed_blind for *_, handle in registered)
    assert (blind, len(registered)) == (84, 110)
    seeded = Counter(name for name, *_, handle in registered if not handle.seed_blind)
    assert seeded == {
        "chaos-storm": 2, "load-chaos": 4, "load-saturation": 9, "load-steady": 6,
        "loadbalance": 1, "policy-compare-load": 4,
    }
    [balancer] = [
        point.params for name, point, _, handle in registered
        if name == "loadbalance" and not handle.seed_blind
    ]
    assert balancer["scheduler"] == "random"


@settings(max_examples=30, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULERS),
    family=st.sampled_from(("",) + GENERATABLE_MODELS),
    draw=st.integers(0, 2**16),
    arrivals=st.sampled_from(("", "poisson:rate=0.02,horizon=800,tasks=6,cap=4,overflow=drop")),
    seeds=st.lists(st.integers(0, 2**31), min_size=2, max_size=2, unique=True),
)
def test_blind_means_the_seed_changes_nothing(scheduler, family, draw, arrivals, seeds):
    nemesis = (
        random_clause(random.Random(draw), family, 4).to_spec_str() if family else ""
    )
    params = {
        "workload": "balanced:3:2:10", "policy": "splice", "processors": 4,
        "scheduler": scheduler, "nemesis": nemesis, "arrivals": arrivals,
    }
    first, second = (execute(RunSpec.from_params({**params, "seed": s})) for s in seeds)
    if arrivals:
        assert not first.seed_blind
    if first.seed_blind:
        assert second.seed_blind
        assert _but_seed(first.record) == _but_seed(second.record)


# -- what blindness is --------------------------------------------------------------


def test_a_drawing_run_is_not_blind():
    spec = RunSpec.from_params(
        {"workload": "balanced:3:2:10", "processors": 4, "seed": 1, "fault_frac": 0.5}
    )
    assert execute(spec).seed_blind
    drawing = replace(spec, machine=replace(spec.machine, scheduler="random"))
    assert not execute(drawing).seed_blind


def test_a_point_is_blind_only_when_its_baseline_was(monkeypatch):
    spec = RunSpec.from_params(
        {"workload": "balanced:3:2:10", "processors": 4, "seed": 2, "fault_frac": 0.5}
    )
    real = session._baseline.__wrapped__
    monkeypatch.setattr(session, "_baseline", lambda *key: (real(*key)[0], False))
    handle = execute(spec)
    assert handle.result.seed_blind and not handle.seed_blind


# -- what the memo saves, and what it hands out --------------------------------------


def test_a_replicated_blind_sweep_runs_each_cell_once(cold):
    """smoke's 4 cells and their 4 baselines, not 10 replicates of each."""
    sweep = run_scenario(with_replications(get_scenario("smoke"), 10), workers=1)
    assert len(sweep.points) == 40
    assert cold["run"] == 8
    assert all(p["result"]["seed"] == p["params"]["seed"] for p in sweep.points)
    assert len({p["result"]["seed"] for p in sweep.points}) == 40


def test_a_returned_record_is_independent(cold):
    sweep = run_scenario(with_replications(get_scenario("smoke"), 3), workers=1)
    first, second, third = (
        p["result"] for p in sweep.points if p["params"]["policy"] == "rollback"
        and p["params"]["fault_frac"] == sweep.points[0]["params"]["fault_frac"]
    )
    expected = deepcopy(second["metrics"])
    first["metrics"]["steps_wasted"] = -1
    first["metrics"]["nodes_failed"].append(99)
    assert second["metrics"] == third["metrics"] == expected
    again = points.run_machine_point(sweep.points[0]["params"])
    assert again["metrics"] == expected


def test_a_replicated_sweep_is_byte_identical_across_worker_counts(cold, tmp_path):
    spec = with_replications(get_scenario("smoke"), 5)
    serial = run_scenario(spec, workers=1, cache_dir=str(tmp_path / "s"))
    parallel = run_scenario(spec, workers=2, cache_dir=str(tmp_path / "p"))
    with open(serial.cache_path, "rb") as a, open(parallel.cache_path, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("bad", [{"seed": "x"}, {"seed": 1.5}, {"seed": True}, {"seed": None}, {}])
def test_a_malformed_seed_fails_alike_on_a_hit_and_a_miss(cold, bad):
    """The memo keys on the parameters without ``seed``, so a hit must
    still refuse a seed ``RunSpec.from_params`` refuses, with its error."""
    params = {k: v for k, v in expand(get_scenario("smoke"))[0].params.items() if k != "seed"}
    with pytest.raises(SpecError) as miss:
        points.run_machine_point({**params, **bad})
    points.run_machine_point({**params, "seed": 1})
    assert len(points._seed_blind_records) == 1
    with pytest.raises(SpecError) as hit:
        points.run_machine_point({**params, **bad})
    assert str(hit.value) == str(miss.value)
    assert vars(hit.value) == vars(miss.value)
