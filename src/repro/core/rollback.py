"""Rollback recovery (paper §3).

    "When processor C identifies the failure of processor B, C simply
    reissues all the checkpointed tasks found in entry B of the table.  By
    doing so, processor C fulfills its responsibility of recovering B.
    Other processors take similar actions [...]  The complete recovery of
    a faulty processor is a collective effort from processors which have
    checkpointed applications on the failed processor."  (§3.2)

Mechanism on each node:

- **Checkpoint recording** happens at placement-acknowledgement time (the
  executor becomes known under dynamic allocation): the child's stamp is
  inserted into the table entry of its executor iff no recorded ancestor
  already covers it (topmost rule).
- **Recovery** on failure detection: reissue every topmost checkpoint in
  the dead processor's entry; the parent instance's spawn record is
  re-armed and the packet re-placed by the ordinary load balancer (§3.3:
  recovery tasks are indistinguishable from original tasks).
- **Orphan abort**: a task aborts when its result cannot be forwarded to
  its (dead) parent — the base-policy default — and when it waits on a
  dead child that no checkpoint will regenerate ("new arguments of the
  task cannot be obtained due to failures").  All intermediate results
  below the cut are discarded; there is no domino effect because
  applicative programs need no undo (§3, citing Randell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.core.checkpoint import CheckpointTable, HeldTotal
from repro.core.policy import FaultTolerance
from repro.sim.task import SpawnState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.stamps import LevelStamp
    from repro.sim.messages import PlacementAck
    from repro.sim.node import Node
    from repro.sim.task import SpawnRecord, TaskInstance


@dataclass
class RollbackState:
    """Per-node policy state; :mod:`repro.core.splice` extends it."""

    table: CheckpointTable


class RollbackRecovery(FaultTolerance):
    """Functional checkpointing with reissue-topmost recovery."""

    name = "rollback"

    # -- bookkeeping -----------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        #: Checkpoints held machine-wide; every node's table updates it.
        self.held_total = HeldTotal()

    def make_node_state(self, node: "Node") -> RollbackState:
        return RollbackState(table=CheckpointTable(self.held_total))

    def table_of(self, node: "Node") -> CheckpointTable:
        return node.ft_state.table

    def instance_covers(self, ancestor_uid: int, holder_uid: int) -> bool:
        """True when re-activating ``ancestor_uid``'s checkpointed child
        regenerates everything ``holder_uid``'s spawn computes.

        That holds exactly when the holder *instance* descends from the
        ancestor instance: recovered activations race with original ones
        (§4.1 cases 6/7), and a checkpoint from one lineage must not
        swallow the recovery point of another.
        """
        uid = holder_uid
        seen = 0
        while True:
            if uid == ancestor_uid:
                return True
            task = self.machine.instance(uid)
            if task is None:
                return False
            parent_uid = task.packet.parent.instance
            if parent_uid == uid:  # the super-root host is its own parent
                return False
            uid = parent_uid
            seen += 1
            if seen > 1_000_000:  # pragma: no cover - cycle guard
                raise RuntimeError("instance genealogy cycle")

    def on_placement_ack(self, node, task, record, ack) -> None:
        table = self.table_of(node)
        # A re-placement moves the checkpoint to the new executor's entry;
        # the record remembers which entry it was recorded in.
        if record.checkpoint_dest is not None:
            table.drop(record.checkpoint_dest, record.child_stamp, task.uid)
            record.checkpoint_dest = None
        # The table holds the record itself: it retains the packet.
        recorded = table.record(
            ack.executor, record.child_stamp, record, task.uid, covers=self.instance_covers
        )
        if recorded is not None:
            record.checkpoint_dest = ack.executor
            metrics = self.machine.metrics
            metrics.checkpoints_recorded += 1
            # The tables keep the machine-wide total current as they
            # record and drop, so the peak is a read, not a sum over nodes.
            held = self.held_total.held
            if held > metrics.checkpoint_peak_held:
                metrics.checkpoint_peak_held = held
            metrics.add_busy(node.id, node.cost.checkpoint_overhead)
            if node.trace.enabled:
                node.trace.emit(
                    node.queue.now,
                    node.id,
                    "checkpoint_recorded",
                    stamp=record.child_stamp,
                    dest=ack.executor,
                )

    def on_child_result(self, node, task, record, value) -> None:
        # The child's whole subtree completed: its recovery point is moot.
        dest = record.checkpoint_dest
        if dest is not None:
            record.checkpoint_dest = None
            # False when a newer topmost stamp subsumed the checkpoint since.
            if self.table_of(node).drop(dest, record.child_stamp, task.uid):
                self.machine.metrics.checkpoints_dropped += 1
                if node.trace.enabled:
                    node.trace.emit(
                        node.queue.now,
                        node.id,
                        "checkpoint_dropped",
                        stamp=record.child_stamp,
                    )

    # -- recovery -----------------------------------------------------------------

    def on_failure_detected(self, node: "Node", dead_node: int) -> None:
        self.recovered(self.replay_entry(node, dead_node, reason="rollback-entry"))
        self._abort_starved_tasks(node, dead_node)

    def replay_entry(
        self, node: "Node", dead_node: int, reason: str, reissue: bool = True
    ) -> List["LevelStamp"]:
        """*The* §3.2 loop: empty the dead processor's entry, reissuing
        each checkpoint whose result is still awaited; returns the stamps
        reissued.  Every recovering policy's entry replay is this method.

        With ``reissue=False`` the entry is discarded unused (a table that
        is not trusted across the failure): the drop is untraced
        bookkeeping either way, so coverage accounting is unchanged.
        """
        table = self.table_of(node)
        replayed: List["LevelStamp"] = []
        for checkpoint in table.entry(dead_node):
            table.drop(dead_node, checkpoint.stamp, checkpoint.task_uid)
            holder = self.machine.instance(checkpoint.task_uid)
            if holder is None:
                continue
            record = holder.record_for_child(checkpoint.stamp)
            if record is None or record.state is SpawnState.FULFILLED:
                continue
            record.checkpoint_dest = None
            if reissue:
                self.before_reissue(node, checkpoint.stamp)
                node.reissue_record(holder, record, reason=reason)
                replayed.append(checkpoint.stamp)
        return replayed

    def before_reissue(self, node: "Node", stamp: "LevelStamp") -> None:
        """Called by :meth:`replay_entry` just ahead of each reissue
        (splice registers the step-parent here)."""

    def recovered(self, anything) -> None:
        """Count one recovery activation per detection that actually had
        work to regenerate (``anything`` truthy), whatever regenerated it."""
        if anything:
            self.machine.metrics.recoveries_triggered += 1

    def _abort_starved_tasks(self, node: "Node", dead_node: int) -> None:
        """Abort tasks waiting on dead-node children that nobody reissues.

        After the reissue pass, any unfulfilled record still pointing at
        the dead executor belongs to a non-topmost child: its ancestor's
        reissue will recompute the whole region, so the waiting task can
        never contribute — "the aborted tasks and their descendants may be
        recollected during garbage collection" (§3.2).
        """
        for task in list(node.live_tasks()):
            if any(r.executor == dead_node for r in task.unfulfilled_records()):
                node.abort_task(task, reason="args-unobtainable")
