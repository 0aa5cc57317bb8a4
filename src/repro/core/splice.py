"""Splice recovery (paper §4).

Splice recovery keeps rollback's checkpoint table and topmost reissue, and
adds the *resilient evaluation structure*: every task knows its
grandparent's node, so when a parent dies

- the reissued topmost task **is** the twin (step-parent) of the dead
  task, registered at the checkpoint-holding (grandparent) node;
- an orphan whose return fails "notifies the grandparent and sends the
  result to the grandparent" (§4.2);
- the grandparent node "reproduces the dead task and transports the
  orphan results to their step-parent when these returns become
  available" (§4.1) — creating the twin *reactively* if the orphan's
  result arrives before the failure notice;
- the twin consults salvaged results before spawning: §4.1 case 4/5
  ("P' will not spawn C' because the answer is already there"); late
  arrivals dedup against recomputed ones (cases 6/7), and results arriving
  after the twin completed are discarded (case 8).

Orphans that themselves wait on dead children are *not* aborted: they can
never complete (case 2 — "C will never complete"), their partial work is
garbage-collected (accounted as waste), and the twin recomputes that
region.  Stranded orphans whose parent *and* grandparent nodes died abort
(§5.2: without great-grandparent pointers, that combination defeats the
splice)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.checkpoint import CheckpointTable
from repro.core.packets import ReturnAddress
from repro.core.rollback import RollbackRecovery, RollbackState
from repro.core.stamps import LevelStamp
from repro.sim.task import SpawnState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.messages import ResultMsg
    from repro.sim.node import Node


@dataclass
class _TwinState:
    """Grandparent-side state for one dead task's step-parent."""

    stamp: LevelStamp
    #: Orphan results awaiting relay, keyed by the child's stamp digit:
    #: (value, sender_instance).
    buffer: Dict[object, Tuple[object, int]] = field(default_factory=dict)
    #: (executor node, instance uid) once the twin's placement is acked.
    placed: Optional[Tuple[int, int]] = None


@dataclass
class _NodeState(RollbackState):
    twins: Dict[LevelStamp, _TwinState] = field(default_factory=dict)


class SpliceRecovery(RollbackRecovery):
    """Rollback plus grandparent relays and partial-result inheritance."""

    name = "splice"
    uses_spawn_index = True  # the grandparent side finds a dead task's record by stamp

    def make_node_state(self, node: "Node") -> _NodeState:
        return _NodeState(table=CheckpointTable(self.held_total))

    # -- orphan side ------------------------------------------------------------

    def on_result_undeliverable(self, node: "Node", msg: "ResultMsg", dead_node: int) -> None:
        if msg.relayed:
            # Grandparent -> twin relay failed: the twin's node died.  Put
            # the result back in the buffer; the next reissue re-flushes.
            state = node.ft_state
            twin = state.twins.get(msg.sender_stamp.parent())
            if twin is not None:
                twin.placed = None
                twin.buffer[msg.sender_stamp.last_digit] = (
                    msg.value,
                    msg.sender_instance,
                )
            return
        if msg.rerouted:
            # The grandparent node is dead too: the orphan is stranded
            # (§5.2) — fall back to rollback's abort.
            node.abort_completed_sender(msg, reason="stranded-orphan")
            return
        self._reroute_to_grandparent(node, msg, dead_node)

    def _reroute_to_grandparent(self, node: "Node", msg: "ResultMsg", dead_node: int) -> None:
        from repro.sim.messages import ResultMsg

        sender = self.machine.instance(msg.sender_instance)
        if sender is None:
            return
        grandparent_node = sender.packet.grandparent_node
        node.metrics.results_orphan_rerouted += 1
        if node.trace.enabled:
            node.trace.emit(
                node.queue.now,
                node.id,
                "result_orphan_rerouted",
                stamp=msg.sender_stamp,
                to=grandparent_node,
            )
        node.forward_result(
            ResultMsg(
                src=node.id,
                dst=grandparent_node,
                sender_stamp=msg.sender_stamp,
                replica=msg.replica,
                value=msg.value,
                addressee=ReturnAddress(grandparent_node, -1),
                sender_instance=msg.sender_instance,
                rerouted=True,
            )
        )

    # -- grandparent side -----------------------------------------------------------

    def on_result_received(self, node: "Node", msg: "ResultMsg") -> bool:
        if not msg.rerouted or msg.relayed:
            return False
        # "grandchild: Create a step-parent for the grandchild if there
        #  isn't one already.  Transfer the result to its step-parent."
        dead_task_stamp = msg.sender_stamp.parent()
        entry = node.spawn_index.get(dead_task_stamp)
        if entry is None:
            node.ignore_result(msg, reason="no-retained-packet")
            return True
        holder_uid, record = entry
        if record.state is SpawnState.FULFILLED:
            # The dead task's answer already arrived (via an earlier twin
            # or before the failure): this orphan return is obsolete.
            node.ignore_result(msg, reason="parent-result-known")
            return True
        state: _NodeState = node.ft_state
        twin = state.twins.get(dead_task_stamp)
        if twin is None:
            twin = self._create_twin(node, dead_task_stamp, holder_uid, record)
            if twin is None:
                return True
        twin.buffer[msg.sender_stamp.last_digit] = (msg.value, msg.sender_instance)
        self._flush_twin(node, twin)
        return True

    def _create_twin(
        self, node: "Node", stamp: LevelStamp, holder_uid: int, record
    ) -> Optional[_TwinState]:
        holder = self.machine.instance(holder_uid)
        if holder is None:
            return None
        twin = self._register_twin(node, stamp, reactive=True)
        if record.checkpoint_dest is not None:
            self.table_of(node).drop(record.checkpoint_dest, stamp, holder.uid)
            record.checkpoint_dest = None
        node.reissue_record(holder, record, reason="splice-twin")
        # Reactive twin creation is a recovery activation in its own
        # right (the orphan's reroute, not the detector, initiated it).
        self.recovered(twin)
        return twin

    def _register_twin(self, node: "Node", stamp: LevelStamp, reactive: bool) -> _TwinState:
        """The one place a step-parent comes to exist at the grandparent
        node: on failure detection (``reactive=False``) or on an orphan's
        result outrunning the notice (``reactive=True``)."""
        state: _NodeState = node.ft_state
        twin = state.twins.get(stamp)
        if twin is None:
            twin = state.twins[stamp] = _TwinState(stamp=stamp)
            node.metrics.twins_created += 1
            if node.trace.enabled:
                node.trace.emit(
                    node.queue.now, node.id, "twin_created", stamp=stamp, reactive=reactive
                )
        else:
            # The previous twin died with this processor: forget its
            # placement so relays buffer until the re-reissue is acked.
            twin.placed = None
        return twin

    def _flush_twin(self, node: "Node", twin: _TwinState) -> None:
        from repro.sim.messages import ResultMsg

        if twin.placed is None or not twin.buffer:
            return
        executor, instance = twin.placed
        for digit, (value, sender_uid) in list(twin.buffer.items()):
            del twin.buffer[digit]
            stamp = twin.stamp.child(digit)
            node.metrics.results_relayed += 1
            if node.trace.enabled:
                node.trace.emit(
                    node.queue.now, node.id, "result_relayed", stamp=stamp, to=executor
                )
            node.send(
                ResultMsg(
                    src=node.id,
                    dst=executor,
                    sender_stamp=stamp,
                    value=value,
                    addressee=ReturnAddress(executor, instance),
                    sender_instance=sender_uid,
                    rerouted=True,
                    relayed=True,
                )
            )

    # -- placement / cleanup ------------------------------------------------------------

    def on_placement_ack(self, node, task, record, ack) -> None:
        super().on_placement_ack(node, task, record, ack)
        state: _NodeState = node.ft_state
        twin = state.twins.get(record.child_stamp)
        if twin is not None:
            twin.placed = (ack.executor, ack.instance)
            self._flush_twin(node, twin)

    def on_child_result(self, node, task, record, value) -> None:
        super().on_child_result(node, task, record, value)
        state: _NodeState = node.ft_state
        state.twins.pop(record.child_stamp, None)

    # -- failure detection ----------------------------------------------------------------

    def on_failure_detected(self, node: "Node", dead_node: int) -> None:
        """Respawn topmost offspring as twins; no orphan aborts.

        "error-detection: Find the topmost offspring of all branches,
        respawn all of these apply tasks.  Establish transport mechanism
        for relaying partial results."  (§4.2)
        """
        self.recovered(self.replay_entry(node, dead_node, reason="splice-entry"))
        # Unlike rollback, tasks waiting on dead non-topmost children are
        # left to strand: their subtrees may still deliver salvageable
        # results, and the twins recompute whatever never arrives.

    def before_reissue(self, node: "Node", stamp: LevelStamp) -> None:
        self._register_twin(node, stamp, reactive=False)
