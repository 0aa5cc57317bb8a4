"""HEAL-style online incremental repair (arXiv:2602.08257).

Where rollback answers a failure with *reissue the checkpoint table,
then abort every starved waiter*, incremental repair keeps the
machine online: each survivor walks its own live tasks, finds the
spawn records whose last known executor is the dead node, and
re-issues exactly those sub-trees from the retained packet copies —
concurrently with all unaffected forward progress.  No waiter is ever
aborted for pointing at a dead child; the lost region identified by
the child's level stamp is regenerated in place.

The ``persist`` mode states which checkpoint state is assumed to
survive the crash of the *detecting* node's peer, and therefore what
drives the repair pass:

``volatile`` (default)
    The ack-time checkpoint table is not trusted across the failure:
    the dead node's entry is discarded unused and repair is driven
    purely by the live waiters' retained packets.  Each lost stamp is
    reissued exactly once, by its own parent.

``durable``
    The table survives: the dead node's entry is replayed exactly like
    rollback (topmost checkpoints first), and the online pass then
    repairs every remaining waiter as well.  Non-topmost regions are
    regenerated twice — once inside a replayed ancestor, once
    directly — and determinacy absorbs the duplicates as wasted work.

``hybrid``
    The table is replayed, and the online pass then repairs only the
    waiters *not* covered by a just-replayed checkpoint stamp — each
    lost region is regenerated exactly once, by the cheapest witness.

All three modes are deterministic, complete the recovery without
aborts, and differ measurably in ``tasks_reissued`` / duplicate-result
counts — which is the point of carrying the axis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.rollback import RollbackRecovery

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.stamps import LevelStamp
    from repro.sim.node import Node

#: The recognised crash-persistency assumptions, in canonical order.
PERSIST_MODES = ("volatile", "durable", "hybrid")


class IncrementalRecovery(RollbackRecovery):
    """Online incremental repair: reissue lost sub-trees, never abort."""

    name = "incremental"

    def __init__(self, persist: str = "volatile"):
        if persist not in PERSIST_MODES:
            raise ValueError(
                f"unknown persist mode {persist!r} (allowed: {', '.join(PERSIST_MODES)})"
            )
        self.persist = persist

    # -- recovery -----------------------------------------------------------------

    def on_failure_detected(self, node: "Node", dead_node: int) -> None:
        # ``volatile``: the table did not survive — rollback's replay runs
        # with ``reissue=False``, discarding the entry unused.
        replayed = self.replay_entry(
            node, dead_node, reason="incremental-replay", reissue=self.persist != "volatile"
        )
        repaired = self._repair_waiters(node, dead_node, replayed)
        self.recovered(replayed or repaired)

    def _repair_waiters(
        self, node: "Node", dead_node: int, replayed: List["LevelStamp"]
    ) -> bool:
        """The online pass: reissue every live waiter's lost sub-tree
        (True when it reissued anything).

        Records just replayed from the table have ``executor`` reset to
        ``None``, so the scan naturally picks up only the remainder.
        Under ``hybrid``, waiters whose stamp descends from a replayed
        checkpoint are skipped — the ancestor's replay regenerates that
        whole region.
        """
        repaired = False
        for task in list(node.live_tasks()):
            for record in task.waiting_on(dead_node):
                if self.persist == "hybrid" and any(
                    stamp.is_ancestor_of(record.child_stamp) for stamp in replayed
                ):
                    continue
                node.reissue_record(task, record, reason="incremental-repair")
                repaired = True
        return repaired
