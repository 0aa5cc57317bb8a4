"""Open-loop execution: arrival injection, congestion, steady-state metrics.

``LoadGenerator.arm(machine)`` converts a closed-loop machine into an
open-loop one, the same way ``NemesisSchedule.arm`` binds fault hooks:

* the machine's workload is replaced by an :class:`OpenLoopWorkload`
  holding one sampled random tree per arrival,
* the super-root's host behavior becomes :class:`_OpenLoopHostBehavior`,
  which demands each tree when its arrival fires instead of demanding
  one root task up front,
* each arrival is a pre-scheduled event that wakes the host through the
  regular ``pending_deliveries`` path (a ``("arrival", k)`` sentinel
  digit), so injection composes with slicing, faults, and recovery
  without new node states,
* when the spec sets a finite inbox capacity, every node gets a
  ``congestion`` hook checked in ``Node._route_packet`` (guarded like
  the nemesis hooks: ``None`` means the closed-loop fast path).

The run still terminates by itself: arrivals stop at the horizon, drops
are recovered by reissue (drop-with-notify) or ack timers (tail drop),
and the host completes when every injected tree has answered.  The
machine's makespan is therefore the drain time of the whole arrival
schedule, and per-tree sojourn latency (completion − arrival) is the
steady-state quantity the report layer aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.packets import WorkSpec
from repro.load.process import Arrival, sample_arrivals
from repro.load.spec import ArrivalSpec
from repro.sim.behavior import Advance, Demand, TaskBehavior, TreeBehavior, TreeSpec
from repro.sim.events import PRIORITY_CONTROL
from repro.sim.workload import Workload
from repro.util.stats import percentiles
from repro.workloads.trees import random_tree


class OpenLoopWorkload(Workload):
    """The arrival population as one workload: ``n`` independent trees.

    Tree ``k``'s tasks carry ``fn_name=str(k)`` so every packet in the
    simulation names the arrival it serves; the expected value is the
    sum over all trees, which keeps the machine's end-of-run verification
    meaningful under drops and faults.
    """

    def __init__(self, trees: List[TreeSpec], name: str):
        self.trees = list(trees)
        self.name = name

    def root_work(self) -> WorkSpec:
        return WorkSpec(kind="main")

    def make_behavior(self, work: WorkSpec) -> TaskBehavior:
        if work.kind != "tree" or work.fn_name is None:
            raise ValueError(f"open-loop workload cannot execute work {work!r}")
        return _ArrivalTreeBehavior(self.trees[int(work.fn_name)], work.tree_node, work.fn_name)

    def expected_value(self) -> int:
        return sum(tree.expected_value() for tree in self.trees)


class _ArrivalTreeBehavior(TreeBehavior):
    """A tree behavior that stamps its arrival tag onto child demands.

    Plain ``TreeBehavior`` demands carry only ``tree_node``; re-attaching
    ``fn_name`` here propagates the arrival index through the entire
    subtree, so reissued/salvaged packets still resolve to the right
    tree after recovery.
    """

    __slots__ = ("tag",)

    def __init__(self, spec: TreeSpec, node_id: int, tag: str):
        super().__init__(spec, node_id)
        self.tag = tag

    def advance(self, delivered) -> Advance:
        adv = super().advance(delivered)
        if adv.demands:
            adv.demands = [
                Demand(d.digit, replace(d.work, fn_name=self.tag)) for d in adv.demands
            ]
        return adv


class _OpenLoopHostBehavior(TaskBehavior):
    """The super-root's task under open loop: demand trees as they arrive.

    Arrival ``k`` is released by delivering the sentinel digit
    ``("arrival", k)`` into the host's ``pending_deliveries`` (tuples
    can never collide with the integer digits real demands use).  The
    host completes once every arrival has been demanded and answered;
    its value is the sum of all tree values.
    """

    __slots__ = ("works", "state", "_issued", "_done")

    def __init__(self, works: List[WorkSpec], state: "LoadState"):
        self.works = works
        self.state = state
        self._issued = 0
        self._done: Dict[int, Any] = {}

    def advance(self, delivered) -> Advance:
        steps = 0
        demands: List[Demand] = []
        for digit, value in delivered.items():
            steps += 1
            if type(digit) is tuple:  # ("arrival", k) release sentinel
                k = digit[1]
                demands.append(Demand(k, self.works[k]))
                self._issued += 1
            else:
                self._done[digit] = value
                self.state.tree_completed(digit)
        total = len(self.works)
        if self._issued == total and len(self._done) == total:
            return Advance(
                steps=steps + 1, completed=True, value=sum(self._done.values())
            )
        return Advance(steps=steps, demands=demands)


class LoadState:
    """Mutable per-run observations: arrivals, sojourns, queue depths."""

    def __init__(self, machine, n_arrivals: int, horizon: float):
        self.machine = machine
        self.n_arrivals = n_arrivals
        self.horizon = horizon
        self.arrival_times: Dict[int, float] = {}
        self.completion_times: Dict[int, float] = {}
        #: ``(time, total queued+executing+inbound tasks)`` samples, taken
        #: at every arrival instant — a deterministic time series.
        self.queue_samples: List[Tuple[float, int]] = []

    def tree_arrived(self, index: int) -> None:
        machine = self.machine
        now = machine.queue.now
        self.arrival_times[index] = now
        machine.metrics.load_arrivals += 1
        depth = sum(node.load() for node in machine.processors())
        self.queue_samples.append((now, depth))
        if machine.trace.enabled:
            machine.trace.emit(
                now, -1, "load_arrival", index=index, queue_depth=depth
            )

    def tree_completed(self, index: int) -> None:
        machine = self.machine
        now = machine.queue.now
        self.completion_times[index] = now
        machine.metrics.load_completed += 1
        if machine.trace.enabled:
            arrived = self.arrival_times.get(index, now)
            machine.trace.emit(
                now, -1, "load_tree_done", index=index, sojourn=round(now - arrived, 6)
            )

    def sojourns(self) -> List[float]:
        return [
            self.completion_times[k] - self.arrival_times[k]
            for k in sorted(self.completion_times)
            if k in self.arrival_times
        ]


class _Congestion:
    """Finite-inbox admission check, bound to every node when armed.

    ``on_route(sender, target, msg)`` returns True when the packet was
    consumed (dropped); False lets ``Node._route_packet`` proceed as in
    the closed loop.  Capacity is measured by ``Node.load()`` — queued,
    executing, and in-flight inbound tasks — the same pressure signal
    the gradient scheduler uses.
    """

    __slots__ = ("capacity", "overflow", "state")

    def __init__(self, capacity: int, overflow: str, state: LoadState):
        self.capacity = capacity
        self.overflow = overflow
        self.state = state

    def on_route(self, sender, target, msg) -> bool:
        if target.load() < self.capacity:
            return False
        now = sender.queue.now
        if self.overflow == "backpressure":
            # Deliver anyway, but the full inbox pushes back: the sender's
            # next slice is deferred by one hop of latency.
            sender.metrics.load_backpressure_events += 1
            until = now + sender.cost.hop_latency
            if until > sender.busy_until:
                sender.busy_until = until
            if sender.trace.enabled:
                sender.trace.emit(
                    now, sender.id, "backpressure",
                    to=target.id, stamp=msg.packet.stamp,
                )
            return False
        # "drop" (drop-with-notify) and "tail" (silent) both shed the packet.
        sender.metrics.load_dropped += 1
        if sender.trace.enabled:
            sender.trace.emit(
                now, sender.id, "inbox_drop",
                to=target.id, policy=self.overflow, stamp=msg.packet.stamp,
            )
        if self.overflow == "drop":
            # Notify the spawning node after the detection delay; the
            # spawn record is still IN_TRANSIT, so replace_packet reissues
            # through the scheduler (which may now pick a less loaded
            # node).  Unlike Network._notify_loss this must NOT mark the
            # target dead — a full inbox is congestion, not failure.
            packet = msg.packet
            origin = sender.machine.nodes[packet.parent.node]

            def renotify() -> None:
                if origin.alive:
                    origin.replace_packet(packet)

            sender.queue.after(
                sender.cost.detection_timeout,
                renotify,
                label="inbox-drop-notify",
                priority=PRIORITY_CONTROL,
            )
        # "tail": no notification; the parent's ack timer recovers it.
        return True


@dataclass(frozen=True)
class LoadSummary:
    """Steady-state observables of one open-loop run."""

    arrivals: int
    completed: int
    horizon: float
    sojourn_p50: Optional[float]
    sojourn_p95: Optional[float]
    sojourn_p99: Optional[float]
    sojourn_mean: Optional[float]
    goodput: Optional[float]
    queue_depth_mean: Optional[float]
    queue_depth_max: Optional[int]
    dropped: int
    backpressure_events: int

    def to_json(self) -> Dict[str, Any]:
        def r6(value):
            return None if value is None else round(value, 6)

        return {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "horizon": r6(self.horizon),
            "sojourn_p50": r6(self.sojourn_p50),
            "sojourn_p95": r6(self.sojourn_p95),
            "sojourn_p99": r6(self.sojourn_p99),
            "sojourn_mean": r6(self.sojourn_mean),
            "goodput": r6(self.goodput),
            "queue_depth_mean": r6(self.queue_depth_mean),
            "queue_depth_max": self.queue_depth_max,
            "dropped": self.dropped,
            "backpressure_events": self.backpressure_events,
        }


class LoadGenerator:
    """One armed open-loop regime (built from an :class:`ArrivalSpec`)."""

    def __init__(self, spec: ArrivalSpec):
        self.spec = spec
        self.machine = None
        self.state: Optional[LoadState] = None
        self.arrivals: Tuple[Arrival, ...] = ()
        self._host: Optional[_OpenLoopHostBehavior] = None

    def arm(self, machine) -> None:
        """Bind this generator to ``machine`` (before the root host starts)."""
        resolved = self.spec.resolved()
        arrivals = sample_arrivals(self.spec, machine.config.seed)
        trees = [
            random_tree(seed=a.tree_seed, target_tasks=a.tasks) for a in arrivals
        ]
        self.machine = machine
        self.arrivals = arrivals
        self.state = LoadState(machine, len(arrivals), float(resolved["horizon"]))
        machine.workload = OpenLoopWorkload(
            trees, name=f"openloop[{self.spec.to_spec_str()}]"
        )
        machine.load = self
        works = [
            WorkSpec(kind="tree", fn_name=str(k), tree_node=0)
            for k in range(len(arrivals))
        ]
        self._host = _OpenLoopHostBehavior(works, self.state)
        cap = int(resolved["cap"])
        if cap > 0:
            congestion = _Congestion(cap, str(resolved["overflow"]), self.state)
            for node in machine.all_nodes():
                node.congestion = congestion
        for arrival in arrivals:
            machine.queue.after(
                arrival.time,
                lambda k=arrival.index: self._release(k),
                label="load-arrival",
                priority=PRIORITY_CONTROL,
            )

    def make_host_behavior(self) -> TaskBehavior:
        assert self._host is not None, "arm() must run before the root host starts"
        return self._host

    def _release(self, index: int) -> None:
        """Fire arrival ``index``: wake the host with a release sentinel."""
        machine = self.machine
        host = machine.instance(machine.root_host_uid)
        if host is None:  # pragma: no cover - defensive
            return
        self.state.tree_arrived(index)
        host.deliver(("arrival", index), index)
        machine.super_root._make_ready(host)

    def summary(self, makespan: float) -> LoadSummary:
        state = self.state
        metrics = self.machine.metrics
        sojourns = state.sojourns()
        if sojourns:
            p50, p95, p99 = percentiles(sojourns, (50.0, 95.0, 99.0))
            mean = sum(sojourns) / len(sojourns)
        else:
            p50 = p95 = p99 = mean = None
        completed = len(state.completion_times)
        depths = [depth for _, depth in state.queue_samples]
        return LoadSummary(
            arrivals=len(state.arrival_times),
            completed=completed,
            horizon=state.horizon,
            sojourn_p50=p50,
            sojourn_p95=p95,
            sojourn_p99=p99,
            sojourn_mean=mean,
            goodput=(completed / makespan) if makespan > 0 else None,
            queue_depth_mean=(sum(depths) / len(depths)) if depths else None,
            queue_depth_max=max(depths) if depths else None,
            dropped=metrics.load_dropped,
            backpressure_events=metrics.load_backpressure_events,
        )
