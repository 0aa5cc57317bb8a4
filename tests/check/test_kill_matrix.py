"""The kill matrix: do the oracles catch a deliberately broken protocol?

The catalog, the run set and the audit live in
:mod:`repro.faults.mutants` (``repro check audit`` prints them): every
recovery and node-protocol rule is stated in one method
(docs/POLICIES.md, *Recovery rules*), so a mutant is one method swapped
for one run, judged by the six oracles of ``repro check`` over
``balanced:5:2:20`` under an early crash, a late crash and the
three-crash storm.  A cell is ``(policy, schedule, oracle)``; it
*moved* when the mutant's status differs from the unmutated run's.  The
unmutated runs cover every policy a mutant names: the four recovering
ones and ``replicated:3`` for §5.3's vote.

The cells each mutant moves are pinned here, and docs/CHECK.md renders
the matrix with one line per survivor saying why the trace cannot see
it: 3 of the 16 mutants are killed.  A change that lets an oracle see
more (or less) of a broken protocol edits a pin below, on purpose.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.check import build_context, check_spec
from repro.faults.mutants import (
    MUTANTS,
    POLICIES,
    RUN_POLICIES,
    SCHEDULES,
    kill_cells,
    matrix_rows,
    run_spec,
    statuses,
)


@pytest.fixture(scope="module")
def unmutated():
    # Runs first, so the fault-free baselines every horizon is measured
    # against are memoized from the unbroken protocol.
    return statuses()


def test_every_unmutated_run_passes_every_oracle(unmutated):
    assert set(RUN_POLICIES) == set(POLICIES) | {"replicated:3"}
    assert len(unmutated) == len(RUN_POLICIES) * len(SCHEDULES) * 6
    # but one: replication masks k - 1 = 2 crashes, and the storm has three
    assert {cell: s for cell, s in unmutated.items() if s != "pass"} == {
        ("replicated:3", "storm", "result-agreement"): "violation",
    }


def _cells(policies, schedules, oracles):
    return {(p, s, o) for p in policies for s in schedules for o in oracles}


#: mutant -> the (policy, schedule, oracle) cells it moves; empty = a
#: survivor (docs/CHECK.md, *Kill matrix*, says why).  Both stalls are
#: seen by ``result-agreement`` alone: a reissue that never happens opens
#: no ``bounded-recovery`` window.
KILLS = {
    "skip-replay": _cells(("rollback", "splice", "reversible"), SCHEDULES, ["result-agreement"]),
    "never-reissue": _cells(POLICIES, SCHEDULES, ["result-agreement"]),
    "never-unwind": set(),
    "never-repair": set(),
    "spare-the-starved": set(),
    "abort-in-name-only": _cells(("rollback", "reversible"), ["early"], ["no-orphan-commit"]),
    "unregistered-twin": set(),
    "never-disarm": set(),
    "refuse-nothing": set(),
    "covers-nothing": set(),
    "stamp-only-coverage": set(),
    "count-nothing": set(),
    "hide-results": set(),
    "never-close": set(),
    "minority-vote": set(),
    "no-completion": set(),
}


def test_the_catalog_has_at_least_fourteen_one_method_mutants():
    assert len(MUTANTS) >= 14
    assert set(KILLS) == set(MUTANTS)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_kill_matrix_is_pinned(mutant, unmutated):
    assert kill_cells(mutant, unmutated) == KILLS[mutant]


@pytest.mark.parametrize(
    "mutant, reading",
    [
        ("count-nothing", lambda handle, ctx: handle.metrics.recoveries_triggered),
        ("hide-results", lambda handle, ctx: ctx.trace.count("result_received")),
        ("never-close", lambda handle, ctx: len(ctx.recovery.closed)),
        ("no-completion", lambda handle, ctx: ctx.trace.count("recovery_complete")),
    ],
)
def test_an_instrument_survivor_is_a_swap_that_bit(mutant, reading):
    # positive on the unbroken run, zero under the mutant: it survives
    # having changed what its method reports, not by missing the swap
    readings = []
    for armed in (False, True):
        with MUTANTS[mutant].armed() if armed else contextlib.nullcontext():
            handle, _ = check_spec(run_spec("rollback", "early"))
            readings.append(reading(handle, build_context(handle)))
    assert readings[0] > 0 and readings[1] == 0, readings


def test_a_minority_vote_decides_on_one_answer():
    # §5.3's vote, broken: every decision rests on one replica's answer
    # where the majority of three needs two, and the run still verifies
    decided = []
    for armed in (False, True):
        with MUTANTS["minority-vote"].armed() if armed else contextlib.nullcontext():
            handle, report = check_spec(run_spec("replicated:3", "early"))
            votes = build_context(handle).trace.of_kind("vote_decided")
            decided.append({r.extra["votes"] for r in votes})
            assert {v.status for v in report.verdicts} == {"pass"}
    assert decided == [{2}, {1}]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_arming_swaps_one_method_and_puts_it_back(name):
    mutant = MUTANTS[name]
    before = dict(vars(mutant.owner))
    with mutant.armed():
        assert vars(mutant.owner)[mutant.method] is mutant.replacement
    assert dict(vars(mutant.owner)) == before


def test_the_audit_rows_state_the_kill_rate():
    rows = matrix_rows(KILLS)
    assert [row[0] for row in rows] == list(MUTANTS)
    assert sum(row[-1] == "killed" for row in rows) == 3
    (orphans,) = [row for row in rows if row[0] == "abort-in-name-only"]
    assert orphans[1] == "Node._mark_aborted"
    assert orphans[2:-1] == ["-", "2/12", "-", "-", "-", "-"]
