"""The fault-model protocol and the nemesis combinator.

A :class:`FaultModel` is one adversary: a declarative description of a
class of faults (crashes, partitions, message chaos, gray failure,
detector jitter) plus the hooks the simulator calls to realize it.  A
:class:`NemesisSchedule` composes any number of models into one armed
adversary for a run.

Design rules (all load-bearing):

- **Determinism.**  Every stochastic decision a model makes draws from a
  named :class:`~repro.util.rng.RngHub` stream derived from the run's
  seed (the schedule assigns each model the stream
  ``nemesis:<index>:<name>`` at arm time).  A nemesis run is therefore a
  pure function of ``(workload, config, nemesis)`` exactly like a plain
  run, and nemesis streams never perturb the simulator's own streams.
- **Zero overhead when inactive.**  The simulator's hook sites guard on
  ``nemesis is not None`` (the same pattern as ``trace.enabled``); with
  no nemesis armed, a run takes the identical code path — and produces
  byte-identical results — as before this subsystem existed.  The
  determinism-parity golden digests pin that.
- **Recoverability.**  Models may only inject faults the §3/§4 recovery
  machinery can survive: crashes (the paper's model), losses the sender
  can detect or time out on, duplicated/reordered deliveries (the
  protocol dedups by stamp), slowdowns, and detection jitter.  Silent
  loss of a :class:`~repro.sim.messages.ResultMsg` between two live
  nodes is *not* injectable — the protocol has no result retransmission,
  so that fault class is unrecoverable by construction (model it as a
  crash or a partition instead).

Composition semantics (``NemesisSchedule.of(a, b, ...)``):

- ``arm`` arms every model in declaration order (order fixes both event
  seq numbers and rng stream names, so composition order is part of the
  experiment's identity);
- delivery interception asks each intercepting model in order; the first
  ``drop`` verdict wins, extra delays add, duplicate copies concatenate;
- step-time scaling applies each model's factor in order (multiplicative
  for the built-in gray-failure model);
- detector jitter sums each model's extra delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.sim.messages import TaskPacketMsg

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine
    from repro.sim.messages import Message
    from repro.sim.network import Network


@dataclass(frozen=True)
class Interception:
    """One model's verdict on one message about to enter the network.

    ``drop`` suppresses delivery entirely (``notify`` additionally routes
    the loss through the sender-side detection path,
    :meth:`Network._notify_loss`; ``reason`` tags the drop for metrics
    and traces).  Otherwise ``delay`` adds latency to the primary copy
    and ``copies`` schedules duplicate deliveries, each with its own
    extra latency.
    """

    drop: bool = False
    notify: bool = False
    reason: str = "chaos"
    delay: float = 0.0
    copies: Tuple[float, ...] = ()


class FaultModel:
    """Base adversary: all hooks default to "no effect".

    Subclasses set the ``intercepts_delivery`` / ``scales_time`` /
    ``jitters_detector`` class flags so the schedule only consults models
    at the hooks they actually implement.
    """

    name = "model"
    #: Set by subclasses that implement :meth:`on_send`.
    intercepts_delivery = False
    #: Set by subclasses that implement :meth:`scale_step_time`.
    scales_time = False
    #: Set by subclasses that implement :meth:`detector_extra`.
    jitters_detector = False

    def validate(self, n_processors: int) -> None:
        """Raise ``ValueError`` for parameters the machine rejects."""

    def arm(self, machine: "Machine", stream: str) -> None:
        """Bind to a machine and schedule any timed events.

        ``stream`` is this model's private rng stream name; draw all
        randomness via ``machine.rng.uniform(stream, ...)`` and friends.
        """

    # -- hooks (called only when the matching class flag is set) ---------------

    def on_send(
        self, network: "Network", msg: "Message", hops: int, now: float
    ) -> Optional[Interception]:
        """Verdict for one message at send time (None = untouched)."""
        return None

    def scale_step_time(self, node_id: int, now: float, duration: float) -> float:
        """Adjusted slice duration for ``node_id`` at sim time ``now``."""
        return duration

    def detector_extra(self, dead: int, observer: int) -> float:
        """Extra delay before ``observer`` receives the failure notice."""
        return 0.0


class NemesisSchedule:
    """An ordered composition of fault models for one run.

    Like :class:`~repro.sim.failure.FaultSchedule`, a schedule is inert
    data until :meth:`arm` binds it to a machine; unlike it, an armed
    schedule stays live for the whole run, intercepting deliveries and
    scaling step time through the hook sites in ``sim/network.py``,
    ``sim/node.py``, and ``sim/failure.py``.
    """

    __slots__ = ("models", "_senders", "_scalers", "_jitters", "machine")

    def __init__(self, models: Sequence[FaultModel] = ()):
        self.models: Tuple[FaultModel, ...] = tuple(models)
        self._senders: List[FaultModel] = [
            m for m in self.models if m.intercepts_delivery
        ]
        self._scalers: List[FaultModel] = [m for m in self.models if m.scales_time]
        self._jitters: List[FaultModel] = [
            m for m in self.models if m.jitters_detector
        ]
        self.machine: "Machine" = None  # bound by arm()

    @staticmethod
    def of(*models: FaultModel) -> "NemesisSchedule":
        return NemesisSchedule(models)

    @staticmethod
    def none() -> "NemesisSchedule":
        return NemesisSchedule(())

    def __iter__(self) -> Iterator[FaultModel]:
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __bool__(self) -> bool:
        return bool(self.models)

    # -- arming -----------------------------------------------------------------

    def arm(self, machine: "Machine") -> None:
        """Validate and arm every model; bind the hook sites.

        An empty schedule arms nothing and leaves every ``nemesis``
        attribute ``None``, so the run is byte-identical to a plain one.
        """
        if not self.models:
            return
        for model in self.models:
            model.validate(machine.config.n_processors)
        self.machine = machine
        machine.nemesis = self
        machine.network.nemesis = self
        for node in machine.all_nodes():
            node.nemesis = self
        for index, model in enumerate(self.models):
            model.arm(machine, f"nemesis:{index}:{model.name}")

    # -- hook dispatch -----------------------------------------------------------

    def intercept_send(self, network: "Network", msg: "Message", hops: int) -> bool:
        """Apply every intercepting model to one message.

        Returns True when this schedule fully handled the message (drop,
        or custom delivery scheduling) and the network's default delivery
        must not run.  Super-root traffic (node -1) is exempt, matching
        the transport's "sends to the super-root never fail" contract.
        """
        if msg.src < 0 or msg.dst < 0:
            return False
        now = network.queue.now
        delay = 0.0
        copies: Tuple[float, ...] = ()
        for model in self._senders:
            verdict = model.on_send(network, msg, hops, now)
            if verdict is None:
                continue
            if verdict.drop:
                network.drop_message(msg, notify=verdict.notify, reason=verdict.reason)
                return True
            delay += verdict.delay
            copies += verdict.copies
        if delay == 0.0 and not copies:
            return False
        metrics = network.metrics
        trace = network.machine.trace
        base = network._delay(hops)
        if delay > 0.0:
            metrics.nemesis_delayed += 1
            if trace.enabled:
                trace.emit(
                    now, msg.src, "nemesis_delay",
                    msg_type=type(msg).__name__, to=msg.dst, extra=round(delay, 3),
                )
        network.deliver_copy(msg, base + delay)
        dst_node = network.machine.nodes[msg.dst]
        for extra in copies:
            metrics.nemesis_duplicated += 1
            # Each accepted task packet decrements the destination's
            # inbound_pending; balance the extra copy's decrement here so
            # sustained duplication can't drain other packets' pending
            # slots and skew the load gradient (mirror of drop_message's
            # rebalance on the loss side).
            if type(msg) is TaskPacketMsg and dst_node.alive:
                dst_node.inbound_pending += 1
            if trace.enabled:
                trace.emit(
                    now, msg.src, "nemesis_duplicate",
                    msg_type=type(msg).__name__, to=msg.dst, extra=round(extra, 3),
                )
            network.deliver_copy(msg, base + extra)
        return True

    def scale_step_time(self, node_id: int, now: float, duration: float) -> float:
        for model in self._scalers:
            duration = model.scale_step_time(node_id, now, duration)
        return duration

    def detector_extra(self, dead: int, observer: int) -> float:
        return sum(m.detector_extra(dead, observer) for m in self._jitters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NemesisSchedule({', '.join(m.name for m in self.models)})"
