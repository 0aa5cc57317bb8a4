"""Mutant protocols: do the oracles catch a deliberately broken protocol?

Every recovery and node-protocol rule is stated in one method
(docs/POLICIES.md, *Recovery rules*), so a broken rule is one method
swapped for one run.  A :class:`Mutant` names the method, its broken
replacement and the policies the rule belongs to (the recovering ones,
or ``replicated:3`` for §5.3's vote); ``with mutant.armed():`` swaps it
in and puts the original back.  Three mutants break the judges'
instruments instead of the protocol: ``Trace.emit``, which writes every
record, ``Trace.positions``, which every trace reader queries, and
``CheckContext.recovery``, the one fold behind ``bounded-recovery``,
``weak-recovery`` and the coverage signature.

:func:`audit` runs each mutant over one fixed run set —
``balanced:5:2:20`` under an early crash and a late crash on 4
processors and the three-crash storm on 8, under every policy the rule
belongs to — and judges it by the six oracles of ``repro check``.  A
cell is ``(policy, schedule, oracle)``; it is *killed* when the
mutant's status differs from the unmutated run's.  ``repro check audit``
prints the result; docs/CHECK.md, *Kill matrix*, says why each survivor
is invisible to the trace.

Nothing imports this module but that verb and its test: no hot path
carries a flag for it, so an unarmed run is the protocol itself.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.api import Experiment
from repro.check import ORACLE_NAMES, CheckContext, check_spec
from repro.core.checkpoint import CheckpointTable
from repro.core.replication import ReplicatedExecution
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

@dataclass(frozen=True)
class Mutant:
    """One single-rule sabotage: ``owner.method`` becomes ``replacement``
    while armed, on the ``policies`` the rule belongs to."""

    name: str
    owner: type
    method: str
    replacement: Any
    policies: Tuple[str, ...]

    @contextmanager
    def armed(self) -> Iterator["Mutant"]:
        original = vars(self.owner)[self.method]  # the owner defines the rule
        setattr(self.owner, self.method, self.replacement)
        try:
            yield self
        finally:
            setattr(self.owner, self.method, original)


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


def _covers_nothing(self, dest, stamp, spawn, task_uid, covers=None):
    # §3.2's "C does nothing" never fires: every spawn is checkpointed
    return _record(self, dest, stamp, spawn, task_uid, covers=lambda a, b: False)


def _stamp_only_coverage(self, dest, stamp, spawn, task_uid, covers=None):
    # lineage ignored: any recorded stamp ancestor suppresses
    return _record(self, dest, stamp, spawn, task_uid, covers=None)


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


def _minority_vote(self):
    # §5.3's vote accepts an answer half the replicas (rounded down) gave
    return self.k // 2


_emit = Trace.emit


def _drop_completions(self, time, node, kind, stamp=None, uid=None, **extra):
    # the recovery happens; the trace never says it finished
    if kind != "recovery_complete":
        _emit(self, time, node, kind, stamp, uid, **extra)


MUTANTS: Dict[str, Mutant] = {
    m.name: m
    for m in (
        Mutant("skip-replay", RollbackRecovery, "replay_entry", _skip_replay, POLICIES),
        Mutant("never-reissue", Node, "reissue_record", _never_reissue, POLICIES),
        Mutant("never-unwind", ReversibleRecovery, "_unwind_results", _never_unwind,
               ("reversible",)),
        Mutant("never-repair", IncrementalRecovery, "_repair_waiters", _never_repair,
               ("incremental:persist=hybrid",)),
        Mutant("spare-the-starved", RollbackRecovery, "_abort_starved_tasks",
               _spare_the_starved, ("rollback", "reversible")),
        Mutant("abort-in-name-only", Node, "_mark_aborted", _abort_in_name_only, POLICIES),
        Mutant("unregistered-twin", SpliceRecovery, "_register_twin", _unregistered_twin,
               ("splice",)),
        Mutant("never-disarm", Node, "_disarm", _never_disarm, POLICIES),
        Mutant("refuse-nothing", Node, "forward_result", _refuse_nothing, POLICIES),
        Mutant("covers-nothing", CheckpointTable, "record", _covers_nothing, POLICIES),
        Mutant("stamp-only-coverage", CheckpointTable, "record", _stamp_only_coverage,
               POLICIES),
        Mutant("count-nothing", RollbackRecovery, "recovered", _count_nothing, POLICIES),
        Mutant("hide-results", Trace, "positions", _hide_results, POLICIES),
        Mutant("never-close", CheckContext, "recovery", property(_never_close), POLICIES),
        Mutant("minority-vote", ReplicatedExecution, "majority", property(_minority_vote),
               ("replicated:3",)),
        Mutant("no-completion", Trace, "emit", _drop_completions, POLICIES),
    )
}
#: Every policy some mutant names, so each mutated cell has an unmutated twin.
RUN_POLICIES = tuple(dict.fromkeys(p for m in MUTANTS.values() for p in m.policies))


def get_mutant(name: str) -> Mutant:
    if name not in MUTANTS:
        raise KeyError(f"unknown mutant {name!r}; known: {', '.join(MUTANTS)}")
    return MUTANTS[name]


def run_spec(policy: str, schedule: str):
    """The run set's spec for one ``(policy, schedule)``."""
    processors, crashes = SCHEDULES[schedule]
    builder = Experiment.workload("balanced:5:2:20").policy(policy).processors(processors)
    for frac, node in crashes:
        builder.fault(frac, node)
    return builder.build()


def statuses(mutant: Optional[str] = None) -> Dict[Tuple[str, str, str], str]:
    """``{(policy, schedule, oracle): status}`` over the run set, with
    the named mutant armed (only on the policies it belongs to)."""
    out = {}
    policies, armed = RUN_POLICIES, nullcontext()
    if mutant is not None:
        chosen = get_mutant(mutant)
        policies, armed = chosen.policies, chosen.armed()
    with armed:
        for policy in policies:
            for schedule in SCHEDULES:
                _, report = check_spec(run_spec(policy, schedule))
                for verdict in report.verdicts:
                    out[(policy, schedule, verdict.oracle)] = verdict.status
    return out


def kill_cells(mutant: str, unmutated: Mapping) -> set:
    """The cells whose status the mutant moved."""
    return {
        cell for cell, status in statuses(mutant).items() if status != unmutated[cell]
    }


def audit(mutant: Optional[str] = None) -> Dict[str, set]:
    """``{mutant: killed cells}`` for the named mutant, or for every one.

    The unmutated run set goes first, so the fault-free baselines every
    horizon is measured against are memoized from the unbroken protocol.
    """
    names = list(MUTANTS) if mutant is None else [get_mutant(mutant).name]
    unmutated = statuses()
    return {name: kill_cells(name, unmutated) for name in names}


def matrix_rows(kills: Mapping[str, set]) -> list:
    """One row per mutant: its swapped method, then per oracle the number
    of the mutant's runs whose status moved (``-`` for none), then
    ``killed`` or ``survivor``."""
    rows = []
    for name, cells in kills.items():
        mutant = MUTANTS[name]
        runs = len(mutant.policies) * len(SCHEDULES)
        counts = [sum(1 for cell in cells if cell[2] == oracle) for oracle in ORACLE_NAMES]
        rows.append(
            [name, f"{mutant.owner.__name__}.{mutant.method}"]
            + [f"{c}/{runs}" if c else "-" for c in counts]
            + ["killed" if cells else "survivor"]
        )
    return rows
