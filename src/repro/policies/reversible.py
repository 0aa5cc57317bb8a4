"""Reversible backtracking recovery (arXiv:1602.03594).

Reversible Communicating Processes recover from a failure by causally
unwinding the computation to a consistent cut and replaying forward.
Mapped onto the stamp lattice, the cut is the frontier of *consumed*
results: a value a live task has already folded into its behavior is
committed — applicative determinacy guarantees any replay reproduces
it bit-for-bit — while a value received from the failed node but not
yet consumed sits causally *across* the cut and is suspect, because
the dead node's causal history is lost with it.

On failure detection each survivor therefore:

1. **Unwinds** — for every live local task, every spawn record whose
   result came from the dead node and still sits undelivered in the
   task's pending-delivery buffer is un-received: the buffered value
   is discarded, the record reverts to unfulfilled (traced as
   ``result_unwound``), and the child is reissued from the retained
   packet so forward replay regenerates the value.
2. **Replays** the checkpoint table entry and aborts the genuinely
   starved waiters — rollback's own recovery, inherited unchanged.

The unwound child re-announces itself through the ordinary spawn and
result path, so the causal-delivery oracle sees a fresh
``result_sent`` before the replacement ``result_received``, and the
``recovery_reissue`` obligation closes through the standard
``recovery_complete`` trace when the replayed value lands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.rollback import RollbackRecovery
from repro.sim.task import SpawnState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.node import Node


class ReversibleRecovery(RollbackRecovery):
    """Rollback plus causal unwind of unconsumed results from the dead node."""

    name = "reversible"

    def on_failure_detected(self, node: "Node", dead_node: int) -> None:
        self.recovered(self._unwind_results(node, dead_node))
        super().on_failure_detected(node, dead_node)

    def _unwind_results(self, node: "Node", dead_node: int) -> bool:
        unwound = False
        for task in list(node.live_tasks()):
            for record in task.spawn_records:
                if not (
                    record.state is SpawnState.FULFILLED
                    and record.executor == dead_node
                    and record.digit in task.pending_deliveries
                ):
                    continue
                # Un-receive: the buffered value never reached the
                # behavior (pending deliveries drain at slice start),
                # so dropping it here rewinds the record to the
                # pre-delivery state exactly.
                task.pending_deliveries.pop(record.digit)
                record.unfulfill()
                node.index_spawn(task, record)
                if node.trace.enabled:
                    node.trace.emit(
                        node.queue.now,
                        node.id,
                        "result_unwound",
                        stamp=record.child_stamp,
                        uid=task.uid,
                    )
                node.reissue_record(task, record, reason="reversible-unwind")
                unwound = True
        return unwound
