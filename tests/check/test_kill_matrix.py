"""The kill matrix: do the oracles catch a deliberately broken protocol?

Every recovery and node-protocol rule is stated in one method
(docs/POLICIES.md, *Recovery rules*), so a broken rule is one method
swapped with ``monkeypatch``.  Each mutant runs over one fixed run set —
``balanced:5:2:20`` under an early crash and a late crash on 4
processors and the three-crash storm on 8, each under every recovering
policy the rule belongs to — and is judged by the six oracles of
``repro check``.  A cell is ``(policy, schedule, oracle)``; it *moved*
when the mutant's status differs from the unmutated run's.

Two mutants break the judges' instruments instead of the protocol:
``Trace.positions``, which every trace reader queries, and
``CheckContext.recovery``, the one fold behind ``bounded-recovery``,
``weak-recovery`` and the coverage signature.

The cells each mutant moves are pinned here, and docs/CHECK.md renders
the matrix with one line per survivor saying why the trace cannot see
it: 3 of the 14 mutants are killed.  A change that lets an oracle see
more (or less) of a broken protocol edits a pin below, on purpose.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Experiment
from repro.check import CheckContext, build_context, check_spec
from repro.core.checkpoint import CheckpointTable
from repro.core.rollback import RollbackRecovery
from repro.core.splice import SpliceRecovery, _TwinState
from repro.policies.incremental import IncrementalRecovery
from repro.policies.reversible import ReversibleRecovery
from repro.sim.node import Node
from repro.sim.trace import Trace

POLICIES = ("rollback", "splice", "incremental:persist=hybrid", "reversible")
#: schedule -> (processors, crashes as (fraction of the fault-free makespan, node))
SCHEDULES = {
    "early": (4, ((0.3, 1),)),
    "late": (4, ((0.7, 2),)),
    "storm": (8, ((0.25, 1), (0.45, 2), (0.65, 3))),
}


def _skip_replay(self, node, dead_node, reason, reissue=True):
    return []  # the dead node's table entry is never replayed


def _never_reissue(self, task, record, reason):
    pass


def _never_unwind(self, node, dead_node):
    return False


def _never_repair(self, node, dead_node, replayed):
    return False


def _spare_the_starved(self, node, dead_node):
    pass


def _abort_in_name_only(self, task, reason):
    # counted and traced as aborted, but the task is left live
    self.metrics.tasks_aborted += 1
    if self.trace.enabled:
        self.trace.emit(
            self.queue.now, self.id, "task_aborted", stamp=task.stamp, uid=task.uid,
            reason=reason,
        )


def _unregistered_twin(self, node, stamp, reactive):
    return _TwinState(stamp=stamp)  # never entered in the node's twin map


def _never_disarm(self, record):
    pass


def _refuse_nothing(self, msg):
    self.send(msg)  # a result for a written-off node goes out anyway


_record = CheckpointTable.record


def _covers_nothing(self, dest, stamp, packet, task_uid, covers=None):
    # §3.2's "C does nothing" never fires: every spawn is checkpointed
    return _record(self, dest, stamp, packet, task_uid, covers=lambda a, b: False)


def _stamp_only_coverage(self, dest, stamp, packet, task_uid, covers=None):
    # lineage ignored: any recorded stamp ancestor suppresses
    return _record(self, dest, stamp, packet, task_uid, covers=None)


def _count_nothing(self, anything):
    pass  # recoveries_triggered never moves


_positions = Trace.positions


def _hide_results(self, kind):
    # every trace reader goes through here: none sees a result arrive
    return () if kind == "result_received" else _positions(self, kind)


_recovery = CheckContext.recovery.func


def _never_close(self):
    # a result closes no window: every window stays open to the end of the run
    folded = _recovery(self)
    still_open = folded.still_open + tuple((stamp, at) for stamp, at, _ in folded.closed)
    horizon = self.horizon if self.horizon > 0 else 1.0
    worst = max([0.0] + [(self.makespan - at) / horizon for _, at in still_open])
    return replace(folded, closed=(), still_open=still_open, worst_ratio=round(worst, 6))


#: name -> (class, method, broken replacement, policies the rule belongs to)
MUTANTS = {
    "skip-replay": (RollbackRecovery, "replay_entry", _skip_replay, POLICIES),
    "never-reissue": (Node, "reissue_record", _never_reissue, POLICIES),
    "never-unwind": (ReversibleRecovery, "_unwind_results", _never_unwind, ("reversible",)),
    "never-repair": (
        IncrementalRecovery, "_repair_waiters", _never_repair, ("incremental:persist=hybrid",),
    ),
    "spare-the-starved": (
        RollbackRecovery, "_abort_starved_tasks", _spare_the_starved, ("rollback", "reversible"),
    ),
    "abort-in-name-only": (Node, "_mark_aborted", _abort_in_name_only, POLICIES),
    "unregistered-twin": (SpliceRecovery, "_register_twin", _unregistered_twin, ("splice",)),
    "never-disarm": (Node, "_disarm", _never_disarm, POLICIES),
    "refuse-nothing": (Node, "forward_result", _refuse_nothing, POLICIES),
    "covers-nothing": (CheckpointTable, "record", _covers_nothing, POLICIES),
    "stamp-only-coverage": (CheckpointTable, "record", _stamp_only_coverage, POLICIES),
    "count-nothing": (RollbackRecovery, "recovered", _count_nothing, POLICIES),
    "hide-results": (Trace, "positions", _hide_results, POLICIES),
    "never-close": (CheckContext, "recovery", property(_never_close), POLICIES),
}


def _spec(policy: str, schedule: str):
    processors, crashes = SCHEDULES[schedule]
    builder = Experiment.workload("balanced:5:2:20").policy(policy).processors(processors)
    for frac, node in crashes:
        builder.fault(frac, node)
    return builder.build()


def statuses(mutant=None) -> dict:
    """``{(policy, schedule, oracle): status}`` over the run set, with
    the named mutant swapped in (only on the policies it belongs to)."""
    out = {}
    policies = POLICIES
    with pytest.MonkeyPatch.context() as mp:
        if mutant is not None:
            owner, method, broken, policies = MUTANTS[mutant]
            mp.setattr(owner, method, broken)
        for policy in policies:
            for schedule in SCHEDULES:
                _, report = check_spec(_spec(policy, schedule))
                for verdict in report.verdicts:
                    out[(policy, schedule, verdict.oracle)] = verdict.status
    return out


def kill_cells(mutant: str, unmutated: dict) -> set:
    """The cells whose status the mutant moved."""
    return {
        cell for cell, status in statuses(mutant).items() if status != unmutated[cell]
    }


@pytest.fixture(scope="module")
def unmutated():
    # Runs first, so the fault-free baselines every horizon is measured
    # against are memoized from the unbroken protocol.
    return statuses()


def test_every_unmutated_run_passes_every_oracle(unmutated):
    assert len(unmutated) == len(POLICIES) * len(SCHEDULES) * 6
    assert {cell: s for cell, s in unmutated.items() if s != "pass"} == {}


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
    ],
)
def test_an_instrument_survivor_is_a_swap_that_bit(mutant, reading):
    # positive on the unbroken run, zero under the mutant: it survives
    # having changed what its method reports, not by missing the swap
    readings = []
    for armed in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if armed:
                owner, method, broken, _ = MUTANTS[mutant]
                mp.setattr(owner, method, broken)
            handle, _ = check_spec(_spec("rollback", "early"))
            readings.append(reading(handle, build_context(handle)))
    assert readings[0] > 0 and readings[1] == 0, readings
