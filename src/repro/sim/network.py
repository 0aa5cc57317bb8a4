"""Message transport.

Delivery latency is ``hops × hop_latency + jitter``.  The failure
semantics implement the paper's §1 assumptions:

- a failed processor transmits nothing (messages it "sent" after death do
  not exist — senders must be alive at send time);
- messages *in flight* to a processor that dies before delivery are lost,
  and the sender learns of the loss after ``detection_timeout`` (modelling
  the paper's "coding or timeout mechanisms" for network problems);
- an unreachable node is treated as faulty by the sender.

Sends to the super-root (node -1) never fail.

``send`` is one of the two hottest functions in a run (every spawn, ack,
and result goes through it), so it computes hop count once, skips the
jitter stream entirely when the cost model has none, reuses one
interned label per message type instead of formatting a fresh string per
message, and schedules the delivery as a ``partial`` over
:meth:`Network._deliver` rather than a per-message closure.  The
nemesis hook costs one ``is None`` check on that path (the same guard
discipline as ``trace.enabled``): an armed
:class:`~repro.faults.model.NemesisSchedule` may intercept a send to
drop, duplicate, or delay it via :meth:`Network.drop_message` and
:meth:`Network.deliver_copy`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict

from repro.core.packets import SUPER_ROOT_NODE
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MESSAGE, EventQueue
from repro.sim.messages import Message, TaskPacketMsg
from repro.sim.topology import Topology
from repro.util.rng import RngHub

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

_DELIVER_LABELS: Dict[type, str] = {}
_LOSS_LABELS: Dict[type, str] = {}


def _deliver_label(msg_type: type) -> str:
    label = _DELIVER_LABELS.get(msg_type)
    if label is None:
        label = _DELIVER_LABELS[msg_type] = f"deliver:{msg_type.__name__}"
    return label


def _loss_label(msg_type: type) -> str:
    label = _LOSS_LABELS.get(msg_type)
    if label is None:
        label = _LOSS_LABELS[msg_type] = f"delivery-failed:{msg_type.__name__}"
    return label


class Network:
    """Topology-aware transport with death-aware delivery."""

    def __init__(self, topology: Topology, queue: EventQueue, rng: RngHub, cost):
        self.topology = topology
        self.queue = queue
        self.rng = rng
        self.cost = cost
        self.machine: "Machine" = None  # bound by Machine
        self.metrics = None  # bound by attach()
        self.nemesis = None  # bound by NemesisSchedule.arm(); None = fast path
        self._hop_latency = cost.hop_latency
        self._jitter = cost.latency_jitter

    def attach(self, machine: "Machine") -> None:
        self.machine = machine
        self.metrics = machine.metrics

    def latency(self, src: int, dst: int) -> float:
        return self._delay(self.topology.hops(src, dst))

    def _delay(self, hops: int) -> float:
        """The one latency formula — shared by send() and the detector
        path so the two can never drift apart (both draw jitter from the
        same seeded stream)."""
        base = (hops if hops > 1 else 1) * self._hop_latency
        if self._jitter > 0:
            base += self.rng.uniform("latency", 0.0, self._jitter)
        return base

    def send(self, msg: Message) -> None:
        """Send ``msg``; delivery or failure-notification is scheduled.

        The sender must be alive (dead processors transmit nothing); the
        machine's node code guarantees this, and we assert it.
        """
        machine = self.machine
        assert machine.nodes[
            msg.src
        ].alive, f"dead node {msg.src} attempted to send {msg.describe()}"

        hops = self.topology.hops(msg.src, msg.dst)
        metrics = self.metrics
        metrics.messages_total += 1
        metrics.message_hops += hops
        if self.nemesis is not None and self.nemesis.intercept_send(self, msg, hops):
            return
        self.deliver_copy(msg, self._delay(hops))

    def deliver_copy(self, msg: Message, delay: float) -> None:
        """Schedule one delivery of ``msg`` after ``delay``.

        The tail of :meth:`send`, and the nemesis's way to inject
        duplicated, delayed, and reordered copies.
        """
        self.queue.after(
            delay,
            partial(self._deliver, msg),
            label=_deliver_label(type(msg)),
            priority=PRIORITY_MESSAGE,
        )

    def _deliver(self, msg: Message) -> None:
        """The delivery event: hand ``msg`` over, or report it lost."""
        dst = self.machine.nodes[msg.dst]
        if dst.alive:
            dst.on_message(msg)
        else:
            self._notify_loss(msg)

    def drop_message(self, msg: Message, notify: bool, reason: str) -> None:
        """Nemesis-requested loss of ``msg`` (never on the default path).

        With ``notify``, the loss surfaces through the same sender-side
        detection as a dead destination (:meth:`_notify_loss`); without
        it the message silently vanishes and recovery rides on the
        parent's ack timeout.
        """
        machine = self.machine
        if reason == "partition":
            self.metrics.nemesis_partition_blocked += 1
        else:
            self.metrics.nemesis_dropped += 1
        dst = machine.nodes[msg.dst]
        # A dropped task packet never arrives to decrement the inbound
        # counter accept_packet maintains; rebalance it here so the load
        # gradient doesn't drift under sustained chaos.
        if dst.alive and dst.inbound_pending > 0 and type(msg) is TaskPacketMsg:
            dst.inbound_pending -= 1
        if machine.trace.enabled:
            machine.trace.emit(
                self.queue.now,
                msg.src,
                "nemesis_drop",
                msg_type=type(msg).__name__,
                to=msg.dst,
                reason=reason,
            )
        if notify:
            self._notify_loss(msg)

    def _notify_loss(self, msg: Message) -> None:
        """The destination was dead (or unreachable) at delivery time:
        after the detection timeout, tell the sender (if still alive)."""
        machine = self.machine
        machine.metrics.delivery_failures += 1

        def notify() -> None:
            sender = machine.node(msg.src)
            if sender.alive:
                sender.on_delivery_failed(msg, msg.dst)

        self.queue.after(
            self.cost.detection_timeout,
            notify,
            label=_loss_label(type(msg)),
            priority=PRIORITY_CONTROL,
        )
