"""Machine assembly and the run loop.

A :class:`Machine` wires processors, network, scheduler, fault injector,
and a fault-tolerance policy together and evaluates one workload.  Runs
are single-shot and deterministic: identical ``(workload, config, faults,
policy)`` inputs produce identical traces.

The *super-root* (§4.3.1) is node ``-1``: an immortal pseudo-processor
whose only task is a host behavior that demands the user program's root
task and waits for its answer.  Because it is a regular node running the
regular protocol, the root task enjoys exactly the same functional
checkpointing and recovery as every other task — the paper's
"pre-evaluation checkpoint" falls out for free: it is the host's spawn
record for the root, ``machine.instance(machine.root_host_uid).spawn_records[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.config import SimConfig
from repro.core.packets import SUPER_ROOT_NODE, ReturnAddress, TaskPacket, WorkSpec
from repro.core.policy import FaultTolerance, NoFaultTolerance
from repro.core.stamps import LevelStamp
from repro.errors import SimError
from repro.lang.values import value_equal
from repro.sim.behavior import Advance, Demand, TaskBehavior
from repro.sim.events import EventQueue
from repro.sim.failure import FaultInjector, FaultSchedule
from repro.sim.loadbalance import make_scheduler
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.task import TaskInstance, TaskStatus
from repro.sim.topology import Topology
from repro.sim.trace import Trace
from repro.sim.workload import Workload
from repro.util.rng import RngHub


class _RootHostBehavior(TaskBehavior):
    """The super-root's task: demand the root task, await its answer."""

    __slots__ = ("root_work", "_demanded")

    def __init__(self, root_work: WorkSpec):
        self.root_work = root_work
        self._demanded = False

    def advance(self, delivered) -> Advance:
        if 0 in delivered:
            return Advance(steps=1, completed=True, value=delivered[0])
        if not self._demanded:
            self._demanded = True
            return Advance(steps=1, demands=[Demand(0, self.root_work)])
        return Advance(steps=0)


@dataclass
class RunResult:
    """Everything observable about one machine run."""

    completed: bool
    value: Any
    makespan: float
    metrics: Metrics
    trace: Trace
    config: SimConfig
    policy_name: str
    workload_name: str
    faults: FaultSchedule
    expected: Any = None
    verified: Optional[bool] = None
    stall_reason: Optional[str] = None
    #: Steady-state observations of an open-loop run
    #: (:class:`repro.load.LoadSummary`), or None for closed-loop runs.
    load: Optional[Any] = None
    #: The run never read its seed: it created no stream on the machine's
    #: hub and armed no load generator (the arrival sampler is the one
    #: seed reader outside the hub).  Such a run is a pure function of
    #: everything but the seed, so its replicates are functional twins.
    #: Not recorded.
    seed_blind: bool = False

    @property
    def correct(self) -> bool:
        """Completed and matched the oracle (when verification ran)."""
        return bool(self.completed and (self.verified is not False))

    def summary(self) -> str:
        status = "completed" if self.completed else f"STALLED ({self.stall_reason})"
        check = {True: "verified", False: "MISMATCH", None: "unchecked"}[self.verified]
        return (
            f"{self.workload_name} under {self.policy_name}: {status}, "
            f"value={self.value!r} [{check}], makespan={self.makespan:.1f}, "
            f"tasks={self.metrics.tasks_completed}/{self.metrics.tasks_accepted}, "
            f"wasted steps={self.metrics.steps_wasted}"
        )


class Machine:
    """One simulated multiprocessor evaluating one workload."""

    def __init__(
        self,
        config: SimConfig,
        workload: Workload,
        policy: Optional[FaultTolerance] = None,
        collect_trace: bool = True,
        scheduler=None,
    ):
        config.validate()
        self.config = config
        self.workload = workload
        self.policy = policy if policy is not None else NoFaultTolerance()

        self.queue = EventQueue()
        self.rng = RngHub(config.seed)
        self.trace = Trace(enabled=collect_trace)
        self.metrics = Metrics()
        self.topology = Topology(config.topology, config.n_processors)
        self.network = Network(self.topology, self.queue, self.rng, config.cost)
        # A scheduler instance may be injected (pinned placements in the
        # figure reproductions); by default it is built from the config.
        # Either way it is attached below, once the nodes exist.
        self.scheduler = (
            scheduler if scheduler is not None else make_scheduler(config.scheduler)
        )

        #: Every task instance, indexed by uid — the one uid map; a node's
        #: instances are the entries whose ``node`` is its id.  One stamp
        #: may be activated several times across failures, so an
        #: activation needs an id of its own; uids are dense and
        #: registered in order, so a list serves where a dict would hash
        #: each one.
        self.instance_registry: List[TaskInstance] = []  # before the nodes: each binds it

        self.nodes: Dict[int, Node] = {
            i: Node(i, self) for i in range(config.n_processors)
        }
        self.super_root = Node(SUPER_ROOT_NODE, self)
        self.nodes[SUPER_ROOT_NODE] = self.super_root
        # Node membership is fixed for the life of the machine, so the
        # id-ordered views are built once (the gradient scheduler reads
        # processors() on every placement).  Callers must not mutate them.
        self._processors: List[Node] = [self.nodes[i] for i in range(config.n_processors)]
        self._all_nodes: List[Node] = [self.super_root] + self._processors

        #: Armed nemesis schedule for this run, or None (the guarded fast
        #: path).  Set by NemesisSchedule.arm() from run().
        self.nemesis = None
        #: Armed open-loop load generator, or None (same guard discipline).
        #: Set by LoadGenerator.arm() from run().
        self.load = None
        self.root_host_uid: Optional[int] = None
        self._finished = False
        self._ran = False
        self.root_value: Any = None

        self.network.attach(self)
        self.scheduler.attach(self)
        self.policy.attach(self)
        for node in self.nodes.values():
            node.ft_state = self.policy.make_node_state(node)

    # -- registry -----------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def processors(self) -> List[Node]:
        """The failable processors, id-ordered (excludes the super-root)."""
        return self._processors

    def all_nodes(self) -> List[Node]:
        return self._all_nodes

    def new_task_uid(self) -> int:
        """The uid the next registered instance must carry."""
        return len(self.instance_registry)

    def register_instance(self, task: TaskInstance) -> None:
        if task.uid != len(self.instance_registry):
            raise SimError(f"task uid {task.uid} registered out of order")
        self.instance_registry.append(task)

    def instance(self, uid: int) -> Optional[TaskInstance]:
        registry = self.instance_registry
        return registry[uid] if 0 <= uid < len(registry) else None

    def is_root_host(self, task: TaskInstance) -> bool:
        return task.uid == self.root_host_uid

    def finish(self, value: Any) -> None:
        self._finished = True
        self.root_value = value

    # -- running -----------------------------------------------------------------

    def run(
        self,
        faults: FaultSchedule = FaultSchedule.none(),
        verify: bool = True,
        nemesis=None,
        load=None,
    ) -> RunResult:
        """Evaluate the workload to completion (or stall) and report.

        ``nemesis`` is an optional
        :class:`~repro.faults.model.NemesisSchedule`; an empty (or
        omitted) one leaves every hook unbound, so the run is
        byte-identical to a pre-nemesis machine.  ``load`` is an optional
        :class:`~repro.load.LoadGenerator`; when armed it replaces the
        workload with the open-loop arrival population (same guard
        discipline — omitted means the closed-loop fast path).
        """
        if self._ran:
            raise SimError("a Machine is single-shot; build a new one per run")
        self._ran = True

        for fault in faults:
            if not 0 <= fault.node < self.config.n_processors:
                raise SimError(f"fault targets unknown processor {fault.node}")

        FaultInjector(self, faults).arm()
        if nemesis is not None:
            nemesis.arm(self)
        if load is not None:
            load.arm(self)
        self._start_root_host()
        self.queue.run(until=lambda: self._finished)

        stall_reason = None
        if not self._finished:
            live = (TaskStatus.READY, TaskStatus.RUNNING, TaskStatus.SUSPENDED)
            pending = sum(1 for t in self.instance_registry if t.status in live)
            stall_reason = (
                f"event queue drained with {pending} live task(s) at t={self.queue.now}"
            )

        self._account_waste()
        expected = None
        verified = None
        if verify:
            expected = self.workload.expected_value()
            if self._finished:
                verified = value_equal(self.root_value, expected)
                if verified is False:
                    self.metrics.oracle_mismatch = True

        return RunResult(
            completed=self._finished,
            value=self.root_value,
            makespan=self.queue.now,
            metrics=self.metrics,
            trace=self.trace,
            config=self.config,
            policy_name=self.policy.name,
            workload_name=self.workload.name,
            faults=faults,
            expected=expected,
            verified=verified,
            stall_reason=stall_reason,
            load=self.load.summary(self.queue.now) if self.load is not None else None,
            seed_blind=self.rng.untouched and self.load is None,
        )

    def _start_root_host(self) -> None:
        host_uid = self.new_task_uid()
        packet = TaskPacket(
            stamp=LevelStamp.root(),
            work=WorkSpec(kind="main"),
            parent=ReturnAddress(SUPER_ROOT_NODE, host_uid),
            grandparent_node=SUPER_ROOT_NODE,
        )
        behavior = (
            _RootHostBehavior(self.workload.root_work())
            if self.load is None
            else self.load.make_host_behavior()
        )
        host = TaskInstance(host_uid, packet, SUPER_ROOT_NODE, behavior)
        self.register_instance(host)
        self.root_host_uid = host_uid
        self.super_root._make_ready(host)

    def dismantle(self) -> None:
        """Cut every reference cycle through this machine, so that dropping
        it (and the :class:`RunResult` that shares its trace) frees the
        whole run by reference count instead of waiting for a collector pass.

        For an owner that keeps only the result (:func:`run_simulation`);
        :meth:`run` never calls it, so a directly built machine stays
        inspectable.  The cycles are the ``machine`` back-references of
        everything the machine holds, and the still-pending events (each
        queued action holds a node or the network; a spawn record holds
        only its ack timer's sequence number).
        """
        self.queue.clear()
        load_state = self.load.state if self.load is not None else None
        for holder in (self.network, self.scheduler, self.policy, self.nemesis,
                       self.load, load_state, *self._all_nodes):
            if holder is not None:
                holder.machine = None

    # -- accounting -----------------------------------------------------------------

    def _account_waste(self) -> None:
        """Classify executed steps as useful or wasted.

        Useful work is what is reachable from the root host by following
        *consumed-result* edges: each fulfilled spawn record remembers
        which instance's result filled it, and a retired task keeps just
        those uids (``TaskInstance.consumed_uids``).  Everything else —
        aborted instances, stranded orphans, losing duplicate activations
        — is waste (the quantity rollback pays and splice tries to save).
        """
        useful: set[int] = set()
        stack = [self.root_host_uid] if self.root_host_uid is not None else []
        while stack:
            uid = stack.pop()
            if uid in useful or uid is None:
                continue
            useful.add(uid)
            task = self.instance(uid)
            if task is None:
                continue
            stack.extend(task.consumed_uids())
        wasted = 0
        for task in self.instance_registry:
            if task.uid not in useful:
                wasted += task.steps_executed
        self.metrics.steps_wasted = wasted


def run_simulation(
    workload: Workload,
    config: Optional[SimConfig] = None,
    policy: Optional[FaultTolerance] = None,
    faults: FaultSchedule = FaultSchedule.none(),
    collect_trace: bool = True,
    nemesis=None,
    load=None,
) -> RunResult:
    """Convenience one-call runner."""
    machine = Machine(
        config if config is not None else SimConfig(),
        workload,
        policy,
        collect_trace=collect_trace,
    )
    try:
        return machine.run(faults=faults, nemesis=nemesis, load=load)
    finally:
        machine.dismantle()
