"""The processor: task execution plus the §4.2 packet protocol.

Each node owns a run queue of ready task instances and executes one at a
time (run-to-block).  The message loop mirrors the paper's protocol:

    LOOP CASE received packet OF
      forward result:  interpret the level stamp (child / grandchild / other)
      task packet:     execute the task; DEMAND children; on completion
                       send the result to the parent; if the parent is
                       dead, notify the grandparent
      error-detection: respawn the topmost offspring, establish relays
    ENDCASE ENDLOOP

plus the implementation-level ``PlacementAck`` that moves a spawn record
from transient state *b* to state *c* (Figure 6).

All recovery decisions are delegated to the attached
:class:`~repro.core.policy.FaultTolerance` hooks; the node provides the
mechanics (records, reissue, result matching, abort) they compose.
Each protocol rule has one site (docs/POLICIES.md, *Recovery rules*):
every message leaves through :meth:`Node.send`, every result this node
answers with through :meth:`Node.forward_result` (the one place a
written-off peer's result is refused), every a→b edge through
:meth:`Node._launch` and every ack-timer cancel through
:meth:`Node._disarm`.

Message handling is charged zero processor time: Rediflow nodes paired the
reduction engine with an autonomous switching unit, so protocol
bookkeeping overlaps computation.  Spawn/checkpoint *are* charged, to the
spawning task's slice.

Hot-path notes (see ``docs/PERFORMANCE.md``): the machine's queue,
trace, metrics, policy, and cost model are bound as plain attributes at
construction (they never change over a run); every trace emit is guarded
by ``trace.enabled`` so the no-trace fast path skips the call entirely,
and hands the trace the stamp/value/address objects themselves (the
record renders them only if someone reads ``detail``); run-queue
membership is mirrored by ``TaskInstance.queued`` instead of deque
scans; and the slice-end and ack-timeout events are ``partial`` objects
over bound methods carrying their arguments, not a nested function (plus
one cell per captured name) defined per event.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.core.packets import SUPER_ROOT_NODE, ReturnAddress, TaskPacket
from repro.core.stamps import LevelStamp
from repro.errors import ProtocolError
from repro.lang.values import value_equal
from repro.sim.behavior import Advance, Demand
from repro.sim.events import PRIORITY_RUN
from repro.sim.messages import (
    FailureNotice,
    Message,
    PlacementAck,
    ResultMsg,
    TaskPacketMsg,
)
from repro.sim.task import NOTHING, SpawnRecord, SpawnState, TaskInstance, TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

_COMPLETED = TaskStatus.COMPLETED
_ABORTED = TaskStatus.ABORTED
_READY = TaskStatus.READY
_RUNNING = TaskStatus.RUNNING
_SUSPENDED = TaskStatus.SUSPENDED
_FULFILLED = SpawnState.FULFILLED


class Node:
    """One processor of the machine (or the super-root when ``id == -1``)."""

    def __init__(self, node_id: int, machine: "Machine"):
        self.id = node_id
        self.machine = machine
        self.alive = True
        #: Plain-attribute bindings of per-run singletons (hot path).
        self.queue = machine.queue
        self.trace = machine.trace
        self.metrics = machine.metrics
        self.policy = machine.policy
        self.cost = machine.config.cost
        self.is_super_root = node_id == SUPER_ROOT_NODE
        #: All local instances by uid.  One that is no longer live stays
        #: as its tombstone (see :meth:`TaskInstance.retire`): lineage
        #: tests, case 8 and the waste accounting still ask after it.
        self.instances: Dict[int, TaskInstance] = {}
        self.run_queue: deque[int] = deque()
        self.current: Optional[int] = None  # uid of the executing instance
        self.busy_until: float = 0.0
        #: Packets routed here but not yet delivered; counted in load() so
        #: a burst of simultaneous spawns spreads instead of piling onto
        #: whichever node looked idle at the instant of the first choice.
        self.inbound_pending: int = 0
        #: Index of outstanding spawn records by child stamp, kept only
        #: under a policy that reads it (splice's grandchild lookup), else
        #: None.  A stamp may be spawned by at most one *live* local
        #: instance at a time.
        self.spawn_index: Optional[Dict[LevelStamp, Tuple[int, SpawnRecord]]] = (
            {} if self.policy.uses_spawn_index else None
        )
        #: Processors this node knows to be dead.
        self.known_dead: Set[int] = set()
        self.ft_state = None  # policy-specific state, set by the machine
        #: Armed nemesis schedule, or None (the guarded fast path — same
        #: discipline as ``trace.enabled``).  Set by NemesisSchedule.arm().
        self.nemesis = None
        #: Armed finite-inbox admission check, or None (same guard
        #: discipline).  Set by LoadGenerator.arm() when a capacity is
        #: configured.
        self.congestion = None
        self._run_label = f"run:node{node_id}"
        self._slice_label = f"slice-end:node{node_id}"

    # -- conveniences -----------------------------------------------------------

    def load(self) -> int:
        """Queued, executing, and inbound task count (gradient pressure)."""
        return (
            len(self.run_queue)
            + (1 if self.current is not None else 0)
            + self.inbound_pending
        )

    def live_tasks(self) -> List[TaskInstance]:
        return [
            t
            for t in self.instances.values()
            if t.status is _READY or t.status is _RUNNING or t.status is _SUSPENDED
        ]

    # -- lifecycle ---------------------------------------------------------------

    def kill(self) -> None:
        """Fail-silent crash: every local task and buffer is destroyed."""
        self.alive = False
        for task in self.live_tasks():
            task.status = _ABORTED
            task.queued = False
            task.retire()
        self.run_queue.clear()
        self.current = None

    # -- message dispatch ---------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        assert self.alive, "dead node received a message (network bug)"
        # Exact types (messages are never subclassed): a type test costs
        # no call on a path every message takes, local ones included.
        kind = type(msg)
        if kind is TaskPacketMsg:
            self._handle_task_packet(msg)
        elif kind is ResultMsg:
            self._handle_result(msg)
        elif kind is PlacementAck:
            self._handle_ack(msg)
        elif kind is FailureNotice:
            self.on_failure_notice(msg.dead_node)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown message type: {msg!r}")

    def on_delivery_failed(self, msg: Message, dead_node: int) -> None:
        """The network reports a message of ours was undeliverable.

        The loss itself was already counted in ``delivery_failures`` by
        :meth:`Network._notify_loss`; counting again here would double
        every detected loss.
        """
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "delivery_failed",
                msg_type=type(msg).__name__,
                dead=dead_node,
            )
        # An unreachable node is considered faulty (§1) — this doubles as a
        # detection channel, typically faster than the detector service.
        self.on_failure_notice(dead_node)
        if isinstance(msg, ResultMsg):
            self.policy.on_result_undeliverable(self, msg, dead_node)
        elif isinstance(msg, TaskPacketMsg):
            self.policy.on_packet_undeliverable(self, msg, dead_node)
        # Undeliverable acks/notices need no action: the ack's information
        # is re-derivable (the parent's timeout path covers it).

    def send(self, msg: Message) -> None:
        """The one way a message leaves this node: one addressed here is
        handled at once, anything else goes to the network."""
        if msg.dst == self.id:
            self.on_message(msg)
        else:
            self.machine.network.send(msg)

    def on_failure_notice(self, dead_node: int) -> None:
        """Error-detection entry point (idempotent per dead node)."""
        if dead_node in self.known_dead or not self.alive:
            return
        self.known_dead.add(dead_node)
        self.metrics.failures_detected += 1
        if self.trace.enabled:
            self.trace.emit(self.queue.now, self.id, "failure_detected", dead=dead_node)
        self.policy.on_failure_detected(self, dead_node)

    # -- task packets ----------------------------------------------------------------

    def _handle_task_packet(self, msg: TaskPacketMsg) -> None:
        if self.is_super_root:
            raise ProtocolError("super-root must never receive task packets")
        if self.policy.on_packet_received(self, msg):
            return
        self.accept_packet(msg.packet)

    def accept_packet(self, packet: TaskPacket) -> TaskInstance:
        """Enqueue a new task instance for this packet and ack the parent."""
        if self.inbound_pending > 0:
            self.inbound_pending -= 1
        uid = self.machine.new_task_uid()
        task = TaskInstance(uid, packet, self.id)
        self.instances[uid] = task
        self.machine.register_instance(task)
        self.metrics.tasks_accepted += 1
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "task_accepted",
                stamp=packet.stamp,
                uid=uid,
                work=packet.work.describe(),
            )
        self.send_ack(packet, uid)
        self._make_ready(task)
        return task

    def send_ack(self, packet: TaskPacket, uid: int) -> None:
        """Tell the packet's parent which instance on this node runs it."""
        self.send(
            PlacementAck(
                src=self.id,
                dst=packet.parent.node,
                stamp=packet.stamp,
                replica=packet.replica,
                executor=self.id,
                instance=uid,
                parent_instance=packet.parent.instance,
            )
        )

    def _make_ready(self, task: TaskInstance) -> None:
        status = task.status
        if status is _COMPLETED or status is _ABORTED:
            return
        if task.queued or task.uid == self.current:
            return
        task.status = _READY
        task.queued = True
        self.run_queue.append(task.uid)
        self._schedule_run()

    def _schedule_run(self) -> None:
        if not self.alive or self.current is not None or not self.run_queue:
            return
        at = self.queue.now
        if self.busy_until > at:
            at = self.busy_until
        self.queue.schedule(at, self._run_next, label=self._run_label, priority=PRIORITY_RUN)

    # -- execution ---------------------------------------------------------------------

    def _run_next(self) -> None:
        if not self.alive or self.current is not None:
            return
        run_queue = self.run_queue
        instances = self.instances
        while run_queue:
            uid = run_queue.popleft()
            task = instances.get(uid)
            if task is not None:
                task.queued = False
                if task.status is _READY:
                    break
        else:
            return
        self.current = task.uid
        task.status = _RUNNING
        if task.behavior is None:  # first slice: a queued task carried none
            task.behavior = self.machine.workload.make_behavior(task.packet.work)
        trace = self.trace
        if trace.enabled:
            trace.emit(
                self.queue.now, self.id, "task_started", stamp=task.stamp, uid=task.uid
            )

        slice_steps = 0
        new_records: List[SpawnRecord] = []
        metrics = self.metrics
        while True:
            delivered = task.pending_deliveries
            if delivered:
                task.pending_deliveries = NOTHING
            advance = task.behavior.advance(delivered)
            steps = advance.steps
            slice_steps += steps
            task.steps_executed += steps
            metrics.steps_total += steps
            satisfied_locally = False
            for demand in advance.demands:
                if demand.digit in task.inherited_results:
                    # Salvaged answer already present: the twin "will not
                    # spawn C' because the answer is already there" (§4.1,
                    # cases 4/5).
                    value, sender_uid = task.inherited_results.pop(demand.digit)
                    record = self._new_record(task, demand)
                    record.fulfill(value, sender_uid)
                    task.deliver(demand.digit, value)
                    metrics.results_salvaged += 1
                    if trace.enabled:
                        trace.emit(
                            self.queue.now,
                            self.id,
                            "result_salvaged",
                            stamp=record.child_stamp,
                            uid=task.uid,
                        )
                    satisfied_locally = True
                else:
                    record = self._new_record(task, demand)
                    new_records.append(record)
            if advance.completed or advance.yielded:
                self._finish_slice(task, slice_steps, new_records, advance)
                return
            if not satisfied_locally:
                break
        self._finish_slice(task, slice_steps, new_records, None)

    def _new_record(self, task: TaskInstance, demand: Demand) -> SpawnRecord:
        child_stamp = task.stamp.child(demand.digit)
        if demand.digit in task.spawn_records:
            raise ProtocolError(
                f"duplicate demand for digit {demand.digit} in task {task.describe()}"
            )
        packet = TaskPacket(
            stamp=child_stamp,
            work=demand.work,
            parent=ReturnAddress(self.id, task.uid),
            grandparent_node=task.packet.parent.node,
            replica=0,
        )
        record = SpawnRecord(digit=demand.digit, child_stamp=child_stamp, packet=packet)
        task.add_record(record)
        self.index_spawn(task, record)
        return record

    def index_spawn(self, task: TaskInstance, record: SpawnRecord) -> None:
        """Enter an outstanding record in the spawn index, if one is kept.

        Public because a policy that un-receives a result (reversible's
        unwind) makes the record outstanding again.
        """
        if self.spawn_index is not None:
            self.spawn_index[record.child_stamp] = (task.uid, record)

    def _finish_slice(
        self,
        task: TaskInstance,
        slice_steps: int,
        new_records: List[SpawnRecord],
        final: Optional[Advance],
    ) -> None:
        cost = self.cost
        duration = slice_steps * cost.reduction_step
        if new_records:
            duration += len(new_records) * cost.spawn_overhead
        nemesis = self.nemesis
        if nemesis is not None and duration > 0.0:
            # Gray failure: a model may stretch this node's step time.
            scaled = nemesis.scale_step_time(self.id, self.queue.now, duration)
            if scaled != duration:
                self.metrics.nemesis_slowdown_time += scaled - duration
                duration = scaled
        self.metrics.add_busy(self.id, duration)
        done_at = self.queue.now + duration
        self.busy_until = done_at

        self.queue.schedule(
            done_at,
            partial(self._complete_slice, task, new_records, final),
            label=self._slice_label,
        )

    def _complete_slice(
        self,
        task: TaskInstance,
        new_records: List[SpawnRecord],
        final: Optional[Advance],
    ) -> None:
        """The slice-end event: dispatch the slice's spawns, then finish,
        requeue or suspend the task."""
        if not self.alive or task.status is not _RUNNING:
            # the node died (or the task was aborted) mid-slice
            if self.current == task.uid:
                self.current = None
                self._schedule_run()
            return
        for record in new_records:
            if record.state is not _FULFILLED:  # salvage may have filled it
                self._dispatch_spawn(task, record)
        if final is not None and final.completed:
            self._complete_task(task, final.value)
        else:
            yielded = final is not None and final.yielded
            if yielded or task.pending_deliveries:
                # time-sliced tasks rejoin the back of the queue
                task.status = _READY
                task.queued = True
                self.run_queue.append(task.uid)
            else:
                task.status = _SUSPENDED
                if self.trace.enabled:
                    self.trace.emit(
                        self.queue.now, self.id, "task_suspended",
                        stamp=task.stamp, uid=task.uid,
                    )
        self.current = None
        self._schedule_run()

    # -- spawning -----------------------------------------------------------------------

    def _dispatch_spawn(self, task: TaskInstance, record: SpawnRecord) -> None:
        self.metrics.tasks_spawned += 1
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "spawn",
                stamp=record.child_stamp,
                parent_uid=task.uid,
                work=record.packet.work.describe(),
            )
        self._launch(task, record)

    def _launch(self, task: TaskInstance, record: SpawnRecord) -> None:
        """Figure 6's a→b edge, for a first spawn and a reissue alike.

        State and timer are set *before* routing: a local placement acks
        synchronously, moving the record straight on to PLACED.  Routing
        goes through the policy's expansion, so replicated execution
        emits (and re-emits) all k copies.  No timer may be armed on entry
        (a reissue disarms the old one first).
        """
        record.state = SpawnState.IN_TRANSIT
        if self.policy.uses_ack_timers:
            record.ack_timer = self.queue.after(
                self.cost.ack_timeout,
                partial(self._on_ack_timeout, task, record),
                label="ack-timeout",
            )
        for packet in self.policy.expand_spawn(self, task, record):
            self._route_packet(packet)

    def _disarm(self, record: SpawnRecord) -> None:
        """Cancel the record's ack timer, if one is armed."""
        if record.ack_timer is not None:
            self.queue.cancel(record.ack_timer)
            record.ack_timer = None

    def _route_packet(self, packet: TaskPacket) -> None:
        dest = self.policy.placement_for(self, packet)
        if dest is None:
            dest = self.machine.scheduler.place(packet, self.id, self.known_dead)
        msg = TaskPacketMsg(src=self.id, dst=dest, packet=packet)
        if dest != self.id:
            target = self.machine.nodes[dest]
            congestion = self.congestion
            if congestion is not None and congestion.on_route(self, target, msg):
                return  # packet shed at the full inbox (drop/tail policy)
            target.inbound_pending += 1
        self.send(msg)

    def _on_ack_timeout(self, task: TaskInstance, record: SpawnRecord) -> None:
        record.ack_timer = None
        if self.alive and record.state is SpawnState.IN_TRANSIT:
            # No acknowledgement inside the window: in this network that
            # means the carrier or executor died.  Reissue (state-b rule).
            self.reissue_record(task, record, reason="ack-timeout")

    def replace_packet(self, packet: TaskPacket) -> None:
        """Re-place a packet whose carrier died before placement."""
        holder = self.instances.get(packet.parent.instance)
        if holder is None or holder.status is _COMPLETED or holder.status is _ABORTED:
            return
        record = holder.record_for_child(packet.stamp)
        if record is not None and record.state is not SpawnState.PLACED:
            self.reissue_record(holder, record, reason="packet-undeliverable")

    def reissue_record(
        self, task: TaskInstance, record: SpawnRecord, reason: str
    ) -> None:
        """Re-activate a child from its retained packet (same stamp).

        This is *the* recovery primitive: rollback's "reissue all the
        checkpointed tasks" and splice's twin creation both land here.
        """
        if task.status is _COMPLETED or task.status is _ABORTED or record.state is _FULFILLED:
            return
        self.metrics.tasks_reissued += 1
        self.metrics.add_busy(self.id, self.cost.reissue_overhead)
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "recovery_reissue",
                stamp=record.child_stamp,
                reason=reason,
                uid=task.uid,
            )
        record.executor = None
        record.reissued = True
        record.packet = record.packet.reissued_to(ReturnAddress(self.id, task.uid))
        self._disarm(record)  # the new launch's timer supersedes the old one
        self._launch(task, record)

    # -- acknowledgements -------------------------------------------------------------------

    def _handle_ack(self, ack: PlacementAck) -> None:
        holder = self.instances.get(ack.parent_instance)
        if holder is None or holder.status is _COMPLETED or holder.status is _ABORTED:
            return
        record = holder.record_for_child(ack.stamp)
        if record is None or record.state is _FULFILLED:
            return
        record.state = SpawnState.PLACED
        record.executor = ack.executor
        self._disarm(record)
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "ack_received",
                stamp=ack.stamp,
                executor=ack.executor,
            )
        self.policy.on_placement_ack(self, holder, record, ack)

    # -- results ------------------------------------------------------------------------------

    def _complete_task(self, task: TaskInstance, value: Any) -> None:
        task.status = _COMPLETED
        task.result = value
        self.metrics.tasks_completed += 1
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "task_completed",
                stamp=task.stamp,
                uid=task.uid,
                value=value,
            )
        self.policy.on_task_completed(self, task)
        if self.machine.is_root_host(task):
            # The host is not retired: its record for the root task is the
            # §4.3.1 pre-evaluation checkpoint, still readable after a run.
            self.machine.finish(task.result)
            return
        task.retire()
        self.send_result(task)

    def send_result(self, task: TaskInstance, addressee: Optional[ReturnAddress] = None) -> None:
        """Forward a completed task's result to its parent."""
        target = addressee or task.packet.parent
        msg = ResultMsg(
            src=self.id,
            dst=target.node,
            sender_stamp=task.stamp,
            replica=task.packet.replica,
            value=task.result,
            addressee=target,
            sender_instance=task.uid,
        )
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now, self.id, "result_sent", stamp=task.stamp, to=target
            )
        self.forward_result(msg)

    def forward_result(self, msg: ResultMsg) -> None:
        """The one exit for a result this node answers with (a task's own
        return, splice's orphan reroute) and the one write-off refusal:
        a result for a node written off never reaches the network, it
        goes straight to the policy as undeliverable.  Relays, acks and
        packets do not pass here; they go out regardless."""
        if msg.dst in self.known_dead:
            self.policy.on_result_undeliverable(self, msg, msg.dst)
        else:
            self.send(msg)

    def _handle_result(self, msg: ResultMsg) -> None:
        if self.policy.on_result_received(self, msg):
            return
        task = self.instances.get(msg.addressee.instance)
        if task is not None and task.status is not _ABORTED:
            if task.status is _COMPLETED:
                # Case 8: "The processor which contained P' may no longer
                # recognize the arrived answer.  The result is discarded."
                self.ignore_result(msg, reason="addressee-completed")
                return
            record = task.record_for_child(msg.sender_stamp)
            if record is not None:
                self.deliver_to_record(task, record, msg)
                return
            if msg.relayed and task.stamp.is_parent_of(msg.sender_stamp):
                # Salvaged result arriving before the demand: buffer it.
                task.inherit(msg.sender_stamp.last_digit, msg.value, msg.sender_instance)
                if self.trace.enabled:
                    self.trace.emit(
                        self.queue.now,
                        self.id,
                        "result_received",
                        stamp=msg.sender_stamp,
                        uid=task.uid,
                        buffered=True,
                    )
                return
        self.ignore_result(msg, reason="no-addressee")

    def deliver_to_record(
        self, task: TaskInstance, record: SpawnRecord, msg: ResultMsg
    ) -> None:
        """Accept a result into a spawn record and wake the waiting task.

        Public because the replication policy delivers the majority value
        through this same path after a vote decides.
        """
        if record.state is _FULFILLED:
            # Duplicate (cases 6/7): identical by determinacy; ignore it.
            if not value_equal(record.result, msg.value):
                from repro.errors import DeterminacyViolationError

                raise DeterminacyViolationError(
                    record.child_stamp, record.result, msg.value
                )
            self.metrics.results_duplicate += 1
            if self.trace.enabled:
                self.trace.emit(
                    self.queue.now,
                    self.id,
                    "result_duplicate",
                    stamp=msg.sender_stamp,
                    uid=task.uid,
                )
            return
        record.fulfill(msg.value, msg.sender_instance)
        self._disarm(record)
        self.metrics.results_delivered += 1
        trace = self.trace
        if msg.relayed:
            self.metrics.results_salvaged += 1
            if trace.enabled:
                trace.emit(
                    self.queue.now, self.id, "result_salvaged",
                    stamp=msg.sender_stamp, uid=task.uid,
                )
        if trace.enabled:
            trace.emit(
                self.queue.now,
                self.id,
                "result_received",
                stamp=msg.sender_stamp,
                uid=task.uid,
                value=msg.value,
            )
            if record.reissued:
                # A previously reissued child finally answered: the
                # recovery obligation opened by recovery_reissue closes.
                trace.emit(
                    self.queue.now,
                    self.id,
                    "recovery_complete",
                    stamp=msg.sender_stamp,
                    uid=task.uid,
                )
        self.policy.on_child_result(self, task, record, msg.value)
        if self.spawn_index is not None:
            self.spawn_index.pop(record.child_stamp, None)
        task.deliver(record.digit, msg.value)
        self._make_ready(task)

    def ignore_result(self, msg: ResultMsg, reason: str) -> None:
        """Discard a result nobody here can use (§4.1 case 8 and kin).

        Public because the splice policy's grandparent side ignores
        obsolete orphan returns through this same path.
        """
        self.metrics.results_ignored += 1
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "result_ignored",
                stamp=msg.sender_stamp,
                reason=reason,
            )

    # -- aborts -------------------------------------------------------------------------------

    def abort_completed_sender(self, msg: ResultMsg, reason: str) -> None:
        """Rollback semantics for an orphan: discard its finished work."""
        for task in self.instances.values():
            if (
                task.stamp == msg.sender_stamp
                and task.packet.replica == msg.replica
                and task.status is _COMPLETED
            ):
                self._mark_aborted(task, reason)
                return

    def abort_task(self, task: TaskInstance, reason: str) -> None:
        """Abort a live local task (cascading waste is accounted at run end)."""
        if task.status is _COMPLETED or task.status is _ABORTED:
            return
        if task.queued:
            task.queued = False
            try:
                self.run_queue.remove(task.uid)
            except ValueError:  # pragma: no cover - flag/queue desync guard
                pass
        for record in task.spawn_records.values():
            self._disarm(record)
            if self.spawn_index is not None:
                self.spawn_index.pop(record.child_stamp, None)
        self._mark_aborted(task, reason)

    def _mark_aborted(self, task: TaskInstance, reason: str) -> None:
        """The tail every abort ends in: status, tombstone, count, trace."""
        task.status = _ABORTED
        task.retire()
        self.metrics.tasks_aborted += 1
        if self.trace.enabled:
            self.trace.emit(
                self.queue.now,
                self.id,
                "task_aborted",
                stamp=task.stamp,
                uid=task.uid,
                reason=reason,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.id} {'alive' if self.alive else 'DEAD'} "
            f"load={self.load()} instances={len(self.instances)}>"
        )
