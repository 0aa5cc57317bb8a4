"""The built-in fault models.

Each model realizes one adversary class from the recovery literature:

- :class:`ScheduledCrash` — the paper's own model (fail-silent whole
  processor crashes), absorbing :class:`~repro.sim.failure.FaultSchedule`;
- :class:`CascadingCrash` — correlated multi-crash: one seed failure
  probabilistically spreads to further processors;
- :class:`Partition` — a network partition that heals: cross-group
  messages are blocked and each side writes the other off as faulty
  (the §1 rule "an unreachable node is treated as faulty");
- :class:`MessageChaos` — per-message drop / duplicate / reorder with
  global or per-link probabilities;
- :class:`GrayFailure` — a transient node slowdown (the node stays
  alive and correct but its reduction steps cost more);
- :class:`DetectorJitter` — randomized extra latency on the failure
  detector's notices.

All randomness is drawn from the model's assigned ``nemesis:*`` rng
stream, so runs are reproducible per seed (see ``faults/model.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple, Union

from repro.faults.model import FaultModel, Interception
from repro.sim.failure import Fault, FaultInjector, FaultSchedule
from repro.sim.messages import PlacementAck, TaskPacketMsg

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine
    from repro.sim.messages import Message
    from repro.sim.network import Network

#: Message classes the protocol recovers from losing silently: a lost
#: task packet or placement ack re-arms via the parent's ack timeout
#: (spawn state *b*, §4.3.2).  Results have no retransmission path, so
#: they are never silently droppable (see faults/model.py).
DROPPABLE = (TaskPacketMsg, PlacementAck)

#: Probability parameter: one global float, or a per-link mapping
#: ``(src, dst) -> probability`` (absent links are untouched).
LinkProb = Union[float, Mapping[Tuple[int, int], float]]


def _prob(p: LinkProb, src: int, dst: int) -> float:
    if isinstance(p, (int, float)):
        return float(p)
    return float(p.get((src, dst), 0.0))


class ScheduledCrash(FaultModel):
    """Kill listed processors at listed times (the paper's fault model).

    This is today's :class:`FaultSchedule` absorbed into the nemesis
    protocol: arming delegates to the same :class:`FaultInjector` the
    machine uses for its ``faults`` argument, so a crash injected either
    way is indistinguishable.
    """

    name = "crash"

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule

    @staticmethod
    def single(time: float, node: int) -> "ScheduledCrash":
        return ScheduledCrash(FaultSchedule.single(time, node))

    def validate(self, n_processors: int) -> None:
        for fault in self.schedule:
            if not 0 <= fault.node < n_processors:
                raise ValueError(f"crash targets unknown processor {fault.node}")

    def arm(self, machine: "Machine", stream: str) -> None:
        FaultInjector(machine, self.schedule).arm()


class CascadingCrash(FaultModel):
    """Correlated multi-crash: a seed failure spreads to neighbours.

    The seed processor dies at ``time``; every other processor (in id
    order) then dies with probability ``spread_prob``, ``spread_delay``
    after the previous death in the cascade.  At least one processor is
    always left alive (a total wipeout is unrecoverable by definition),
    and ``max_victims`` caps the cascade.  The victim set is drawn once
    at arm time from the model's rng stream, so a given seed yields one
    fixed cascade.
    """

    name = "cascade"

    def __init__(
        self,
        time: float,
        node: int,
        spread_prob: float = 0.5,
        spread_delay: float = 40.0,
        max_victims: Optional[int] = None,
    ):
        self.time = time
        self.node = node
        self.spread_prob = spread_prob
        self.spread_delay = spread_delay
        self.max_victims = max_victims

    def validate(self, n_processors: int) -> None:
        if not 0 <= self.node < n_processors:
            raise ValueError(f"cascade seeds unknown processor {self.node}")
        if not 0.0 <= self.spread_prob <= 1.0:
            raise ValueError("cascade spread_prob must be in [0, 1]")
        if self.spread_delay <= 0:
            raise ValueError("cascade spread_delay must be positive")

    def arm(self, machine: "Machine", stream: str) -> None:
        n = machine.config.n_processors
        cap = n - 1  # always leave a survivor
        if self.max_victims is not None:
            cap = min(cap, self.max_victims)
        faults = [Fault(self.time, self.node)]
        when = self.time
        for other in range(n):
            if other == self.node or len(faults) >= cap:
                continue
            if machine.rng.uniform(stream) < self.spread_prob:
                when += self.spread_delay
                faults.append(Fault(when, other))
        FaultInjector(machine, FaultSchedule.of(*faults)).arm()


class Partition(FaultModel):
    """A network partition that heals.

    From ``start`` to ``start + duration`` the processors in ``group``
    cannot exchange messages with the rest: cross-group sends are
    blocked and the sender is notified through the ordinary send-failure
    detection path (§1: "an unreachable node is treated as faulty").
    Each side additionally receives synthetic unreachability notices
    (the passive detector's view of a heartbeat timeout), so recovery
    proceeds even between nodes with no traffic in flight.  After the
    heal, messages flow again; late results from the written-off side
    arrive as duplicates or orphans and are suppressed by the §4.1 case
    machinery — that suppression is exactly what the chaos scenarios
    measure.  The super-root (node -1) stays reachable from both sides,
    consistent with the transport's "sends to the super-root never
    fail".
    """

    name = "partition"
    intercepts_delivery = True

    def __init__(self, start: float, duration: float, group: Sequence[int]):
        self.start = start
        self.end = start + duration
        self.group = frozenset(group)
        self._side: Tuple[int, ...] = ()  # built at validate/arm time

    def validate(self, n_processors: int) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("partition window must be non-empty and non-negative")
        if not self.group:
            raise ValueError("partition group must not be empty")
        for node in self.group:
            if not 0 <= node < n_processors:
                raise ValueError(f"partition names unknown processor {node}")
        if len(self.group) >= n_processors:
            raise ValueError("partition group must leave nodes on the other side")
        self._side = tuple(
            1 if i in self.group else 0 for i in range(n_processors)
        )

    def blocks(self, src: int, dst: int, now: float) -> bool:
        """The partition-membership check (micro-benchmarked as
        `micro-partition-check`): is the ``src -> dst`` link cut at
        ``now``?  Super-root traffic (negative ids) is never cut."""
        if now < self.start or now >= self.end:
            return False
        if src < 0 or dst < 0:
            return False
        side = self._side
        return side[src] != side[dst]

    def on_send(
        self, network: "Network", msg: "Message", hops: int, now: float
    ) -> Optional[Interception]:
        if self.blocks(msg.src, msg.dst, now):
            return Interception(drop=True, notify=True, reason="partition")
        return None

    def arm(self, machine: "Machine", stream: str) -> None:
        if not self._side:
            self.validate(machine.config.n_processors)
        cost = machine.config.cost
        # Synthetic unreachability notices: every node learns, one
        # detection timeout into the window, that the other side is
        # unreachable — the partition-era stand-in for §1's passive
        # diagnosis.  Guarded at fire time so a healed (or dead) pair
        # never produces a stale notice.
        when = self.start + cost.detection_timeout
        if when >= self.end:
            return  # too short to detect: only in-flight sends notice it
        for observer in machine.processors():
            for other in machine.processors():
                if self._side[observer.id] == self._side[other.id]:
                    continue

                def notice(obs=observer, dead=other.id) -> None:
                    if obs.alive and self.blocks(obs.id, dead, machine.queue.now):
                        obs.on_failure_notice(dead)

                machine.queue.schedule(
                    when, notice, label=f"nemesis:unreachable:{observer.id}->{other.id}"
                )


class MessageChaos(FaultModel):
    """Per-message drop / duplicate / reorder.

    Within the ``[start, start + duration)`` window, each message is
    independently dropped with probability ``drop`` (only recoverable
    classes — task packets and placement acks — see :data:`DROPPABLE`),
    duplicated with probability ``duplicate``, and delayed with
    probability ``reorder`` (extra latency uniform in ``[0, span)``,
    which reorders it against its peers).  Probabilities are global
    floats or per-link ``{(src, dst): p}`` mappings.  ``notify_drops``
    routes drops through the sender-side loss detection
    (:meth:`Network._notify_loss`) instead of losing them silently — the
    sender then treats the link's far end as faulty and recovers
    immediately rather than waiting out the ack timeout.
    """

    name = "chaos"
    intercepts_delivery = True

    def __init__(
        self,
        drop: LinkProb = 0.0,
        duplicate: LinkProb = 0.0,
        reorder: LinkProb = 0.0,
        span: float = 30.0,
        notify_drops: bool = False,
        start: float = 0.0,
        duration: float = float("inf"),
    ):
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.span = span
        self.notify_drops = notify_drops
        self.start = start
        self.end = start + duration
        self._hub = None
        self._stream = ""

    def validate(self, n_processors: int) -> None:
        for label, p in (("drop", self.drop), ("duplicate", self.duplicate),
                         ("reorder", self.reorder)):
            values = [p] if isinstance(p, (int, float)) else list(p.values())
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"chaos {label} probability {v} not in [0, 1]")
        if self.span < 0:
            raise ValueError("chaos span must be non-negative")

    def arm(self, machine: "Machine", stream: str) -> None:
        self._hub = machine.rng
        self._stream = stream

    def on_send(
        self, network: "Network", msg: "Message", hops: int, now: float
    ) -> Optional[Interception]:
        if now < self.start or now >= self.end:
            return None
        hub, stream = self._hub, self._stream
        src, dst = msg.src, msg.dst
        p_drop = _prob(self.drop, src, dst)
        if p_drop and isinstance(msg, DROPPABLE) and hub.uniform(stream) < p_drop:
            return Interception(drop=True, notify=self.notify_drops, reason="chaos")
        delay = 0.0
        copies: Tuple[float, ...] = ()
        p_dup = _prob(self.duplicate, src, dst)
        if p_dup and hub.uniform(stream) < p_dup:
            copies = (hub.uniform(stream, 0.0, self.span),)
        p_reorder = _prob(self.reorder, src, dst)
        if p_reorder and hub.uniform(stream) < p_reorder:
            delay = hub.uniform(stream, 0.0, self.span)
        if delay or copies:
            return Interception(delay=delay, copies=copies)
        return None


class GrayFailure(FaultModel):
    """Transient node slowdown (gray failure).

    ``node`` stays alive and correct, but from ``start`` to
    ``start + duration`` every reduction slice it executes costs
    ``factor``× the cost model's time.  No detector fires — the
    slowness is observable only through makespan and load imbalance,
    which is what makes gray failures adversarial for recovery schemes
    tuned to fail-silent crashes.
    """

    name = "grayfail"
    scales_time = True

    def __init__(self, node: int, start: float, duration: float, factor: float = 4.0):
        self.node = node
        self.start = start
        self.end = start + duration
        self.factor = factor

    def validate(self, n_processors: int) -> None:
        if not 0 <= self.node < n_processors:
            raise ValueError(f"grayfail targets unknown processor {self.node}")
        if self.factor < 1.0:
            raise ValueError("grayfail factor must be >= 1 (it models slowdown)")
        if self.start < 0 or self.end <= self.start:
            raise ValueError("grayfail window must be non-empty and non-negative")

    def scale_step_time(self, node_id: int, now: float, duration: float) -> float:
        if node_id == self.node and self.start <= now < self.end:
            return duration * self.factor
        return duration


class DetectorJitter(FaultModel):
    """Randomized failure-detector latency.

    Each (dead node, observer) notice is delayed by an extra uniform
    draw in ``[0, max_extra)`` — survivors no longer learn of a death in
    lock-step, so recovery actions interleave with normal traffic in
    orders the fixed-delay detector never produces.
    """

    name = "jitter"
    jitters_detector = True

    def __init__(self, max_extra: float = 20.0):
        self.max_extra = max_extra
        self._hub = None
        self._stream = ""

    def validate(self, n_processors: int) -> None:
        if self.max_extra < 0:
            raise ValueError("jitter max_extra must be non-negative")

    def arm(self, machine: "Machine", stream: str) -> None:
        self._hub = machine.rng
        self._stream = stream

    def detector_extra(self, dead: int, observer: int) -> float:
        if self.max_extra == 0:
            return 0.0
        return self._hub.uniform(self._stream, 0.0, self.max_extra)
