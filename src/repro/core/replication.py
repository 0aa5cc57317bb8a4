"""Replicated-task redundancy with majority voting (paper §5.3).

    "An applicative system can emulate hardware redundancy by simply
    replicating the task packets.  Eventually, a task is executed by
    several processors at random times.  The results are sent back to the
    originating node asynchronously.  The originating node compares these
    results and selects a majority consensus as the correct answer.  [...]
    a node does not have to wait for the slowest answer if it has received
    the identical results from the majority of replicated tasks."

Implementation:

- every spawn emits ``k`` packets (replica indices ``0..k-1``) placed on
  *distinct* processors by a deterministic stamp hash (the "carefully
  distributed" copies of Misunas' TMR, which this policy emulates);
- executors deduplicate by ``(stamp, replica)``: a replica re-requested by
  several parent replicas runs once, accumulating return addresses, and
  answers each (immediately, if already finished);
- each parent replica's spawn record collects votes; the first value to
  reach ``⌈(k+1)/2⌉`` identical copies fulfils the record, later votes are
  ignored.

With fail-silent processors a vote can only be *missing*, never wrong, so
``k = 3`` masks any single failure with zero recovery latency — the
trade being ``k×`` work and ``k²`` result messages, which the replication
benchmark measures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.packets import ReturnAddress, TaskPacket
from repro.core.policy import FaultTolerance
from repro.core.stamps import LevelStamp
from repro.lang.values import value_equal
from repro.sim.task import SpawnState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.messages import ResultMsg, TaskPacketMsg
    from repro.sim.node import Node
    from repro.sim.task import SpawnRecord, TaskInstance


@dataclass
class _ReplicaEntry:
    """Executor-side state for one (stamp, replica) pair."""

    instance_uid: int
    extra_parents: List[ReturnAddress] = field(default_factory=list)


@dataclass
class _NodeState:
    replicas: Dict[Tuple[LevelStamp, int], _ReplicaEntry] = field(default_factory=dict)


class ReplicatedExecution(FaultTolerance):
    """Execute every task k ways; accept the first majority answer."""

    name = "replicated"
    uses_ack_timers = True

    def __init__(self, k: Optional[int] = None):
        super().__init__()
        self._k = k

    @property
    def k(self) -> int:
        return self._k if self._k is not None else self.machine.config.replication_factor

    @property
    def majority(self) -> int:
        return self.k // 2 + 1

    def make_node_state(self, node: "Node") -> _NodeState:
        return _NodeState()

    # -- spawn side -----------------------------------------------------------

    def expand_spawn(self, node, task, record) -> List[TaskPacket]:
        return [record.packet.with_replica(i) for i in range(self.k)]

    def placement_for(self, node, packet: TaskPacket) -> Optional[int]:
        alive = [n.id for n in self.machine.processors() if n.alive]
        if not alive:
            return None
        base = hash(tuple(map(hash, packet.stamp.digits))) % len(alive)
        # distinct processors per replica as far as the machine allows
        return alive[(base + packet.replica) % len(alive)]

    # -- executor side ----------------------------------------------------------

    def on_packet_received(self, node: "Node", msg: "TaskPacketMsg") -> bool:
        from repro.sim.task import TaskStatus

        key = (msg.packet.stamp, msg.packet.replica)
        state: _NodeState = node.ft_state
        entry = state.replicas.get(key)
        if entry is None:
            task = node.accept_packet(msg.packet)
            state.replicas[key] = _ReplicaEntry(instance_uid=task.uid)
            return True
        # Duplicate request (another parent replica or a reissue): register
        # the requester and answer immediately when already done.  The
        # consumed packet still settles the inbound counter its routing
        # incremented (accept_packet won't run to do it) — without this,
        # deduped deliveries leave phantom load on the node.
        if node.inbound_pending > 0:
            node.inbound_pending -= 1
        parent = msg.packet.parent
        task = self.machine.instance(entry.instance_uid)
        if task is None:
            return False
        if parent not in entry.extra_parents and parent != task.packet.parent:
            entry.extra_parents.append(parent)
        node.send_ack(msg.packet, task.uid)
        if task.status == TaskStatus.COMPLETED:
            node.send_result(task, addressee=parent)
        return True

    def on_task_completed(self, node: "Node", task: "TaskInstance") -> None:
        state: _NodeState = node.ft_state
        entry = state.replicas.get((task.stamp, task.packet.replica))
        if entry is None or entry.instance_uid != task.uid:
            return
        for parent in entry.extra_parents:
            node.send_result(task, addressee=parent)

    # -- voting -----------------------------------------------------------------

    def on_result_received(self, node: "Node", msg: "ResultMsg") -> bool:
        from repro.sim.task import TaskStatus

        task = self.machine.instance(msg.addressee.instance)
        if task is None or task.node != node.id:
            return False
        if task.status in (TaskStatus.COMPLETED, TaskStatus.ABORTED):
            return False
        record = task.record_for_child(msg.sender_stamp)
        if record is None or record.state is SpawnState.FULFILLED:
            return False
        if record.votes is None:
            record.votes = []
        record.votes.append(msg.value)
        node.metrics.votes_recorded += 1
        if node.trace.enabled:
            node.trace.emit(
                node.queue.now,
                node.id,
                "vote_recorded",
                stamp=msg.sender_stamp,
                replica=msg.replica,
                votes=len(record.votes),
            )
        agreeing = sum(1 for v in record.votes if value_equal(v, msg.value))
        if agreeing >= self.majority:
            record.vote_decided = True
            node.metrics.votes_decided += 1
            if node.trace.enabled:
                node.trace.emit(
                    node.queue.now,
                    node.id,
                    "vote_decided",
                    stamp=msg.sender_stamp,
                    votes=agreeing,
                )
            node.deliver_to_record(task, record, msg)
        return True

    # -- failures ----------------------------------------------------------------

    def on_packet_undeliverable(self, node, msg, dead_node) -> None:
        """A replica's carrier died.  The record recovers via other
        replicas' votes; re-place only if *no* replica was ever placed
        (otherwise the ack/vote machinery is already running)."""
        holder = self.machine.instance(msg.packet.parent.instance)
        if holder is None:
            return
        record = holder.record_for_child(msg.packet.stamp)
        if record is None or record.state is SpawnState.FULFILLED:
            return
        if record.state == SpawnState.IN_TRANSIT and not record.votes:
            node.reissue_record(holder, record, reason="replica-lost")

    def on_result_undeliverable(self, node, msg, dead_node) -> None:
        # A vote aimed at a dead parent replica: other parent replicas
        # vote independently; nothing to recover.
        pass
