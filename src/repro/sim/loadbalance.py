"""Dynamic task placement (load balancing).

The paper requires a *dynamic allocation strategy* for cheap recovery
(§3.3): recovery tasks are placed exactly like original tasks, so no
linkage surgery is needed and no balance is disturbed.  The default is the
gradient model of Lin & Keller's companion paper [10]: task packets flow
from loaded processors toward the nearest idle processor, following a
"gradient" field that idle processors anchor at zero.

Schedulers implement ``place(packet, origin, exclude) -> node id``.  The
machine then charges hop latency from the origin to the chosen executor.

Alternatives (for the §3.3 ablation):

- ``random``      — uniform over alive processors (seeded stream);
- ``round_robin`` — cyclic over alive processors;
- ``local``       — always the spawning processor (no distribution);
- ``static``      — stamp-hash placement, the static-allocation model the
  paper contrasts against (placement is a pure function of the task's
  stamp, recomputed over surviving nodes after a failure).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.packets import TaskPacket
from repro.errors import SchedulingError
from repro.sim.topology import Topology
from repro.util.rng import RngHub


class Scheduler:
    """Base class: knows the topology and how to observe node load.

    Built without a machine; :meth:`attach` (called by ``Machine``) binds
    the machine, its topology and its random streams.
    """

    name = "base"

    def __init__(self) -> None:
        self.machine = None
        self.topology: Optional[Topology] = None
        self.rng: Optional[RngHub] = None

    def attach(self, machine) -> None:
        self.machine = machine
        self.topology = machine.topology
        self.rng = machine.rng

    # -- helpers --------------------------------------------------------------

    def _alive_nodes(self, exclude: Set[int]) -> List:
        """Alive, non-excluded processor *objects* — the one liveness rule."""
        nodes = [
            n
            for n in self.machine.processors()
            if n.alive and n.id not in exclude
        ]
        if not nodes:
            raise SchedulingError("no alive processors available for placement")
        return nodes

    def _alive(self, exclude: Set[int]) -> List[int]:
        return [n.id for n in self._alive_nodes(exclude)]

    def _load(self, node_id: int) -> int:
        """Observed load: queued + executing task count."""
        return self.machine.node(node_id).load()

    # -- interface --------------------------------------------------------------

    def place(self, packet: TaskPacket, origin: int, exclude: Set[int]) -> int:
        raise NotImplementedError


class GradientScheduler(Scheduler):
    """Gradient-model placement [10].

    The gradient of a processor is its hop distance to the nearest idle
    processor (idle = no queued or running task).  A loaded origin sends
    the packet down the gradient to that idle processor; an idle origin
    keeps the task.  When no processor is idle, the packet goes to the
    least-loaded neighbour (pressure diffusion), or stays home when the
    origin is no worse than its neighbours.

    This is a *functional* model of the gradient algorithm: the simulator
    reads current queue lengths directly instead of exchanging gradient
    update messages.  The placement decisions match a converged gradient
    field; the protocols under study are insensitive to the (small)
    convergence lag, and the ablation in benchmarks compares schedulers,
    not gradient propagation dynamics.
    """

    name = "gradient"

    def place(self, packet: TaskPacket, origin: int, exclude: Set[int]) -> int:
        # This runs once per spawn: one pass over the processors, loads
        # read inline off the node objects (queued + executing + inbound,
        # exactly Node.load()), no intermediate lists.  Processors are
        # visited in id order and only a strictly better candidate
        # replaces the best so far, so ties go to the lowest id.
        processors = self.machine.processors()
        # Distances matter only from an origin that may itself be chosen:
        # an alive, non-excluded processor (never the super-root).
        dist = None
        if origin >= 0 and origin not in exclude:
            o = processors[origin]
            if o.alive:
                if not (o.run_queue or o.current is not None or o.inbound_pending):
                    return origin
                dist = self.topology.hops_from(origin)
        idle = -1  # nearest idle processor so far, at idle_hops
        idle_hops = 0
        least = -1  # least-loaded diffusion target so far, at least_load
        least_load = 0
        for n in processors:
            if not n.alive or n.id in exclude:
                continue
            if n.run_queue or n.current is not None or n.inbound_pending:
                # Diffusion target: the origin and its neighbours, or any
                # processor when the origin cannot take part.  Moot once
                # an idle processor is known.
                if idle < 0 and (dist is None or dist[n.id] <= 1):
                    load = (
                        len(n.run_queue)
                        + (1 if n.current is not None else 0)
                        + n.inbound_pending
                    )
                    if least < 0 or load < least_load:
                        least, least_load = n.id, load
            elif dist is None:
                return n.id  # no usable origin: the first idle processor
            else:
                hops = dist[n.id]
                if hops == 1:
                    return n.id  # the loaded origin is the only nearer node
                if idle < 0 or hops < idle_hops:
                    idle, idle_hops = n.id, hops
        if idle >= 0:
            return idle
        if least < 0:
            raise SchedulingError("no alive processors available for placement")
        return least


class RandomScheduler(Scheduler):
    """Uniform placement over alive processors (seeded)."""

    name = "random"

    def place(self, packet: TaskPacket, origin: int, exclude: Set[int]) -> int:
        return self.rng.choice("placement", self._alive(exclude))


class RoundRobinScheduler(Scheduler):
    """Cyclic placement over alive processors."""

    name = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self._counter = 0

    def place(self, packet: TaskPacket, origin: int, exclude: Set[int]) -> int:
        alive = self._alive(exclude)
        chosen = alive[self._counter % len(alive)]
        self._counter += 1
        return chosen


class LocalScheduler(Scheduler):
    """Keep every task on its spawning processor (no distribution).

    The origin may be the super-root (id -1) or a dead processor; those
    fall back to the first alive processor.
    """

    name = "local"

    def place(self, packet: TaskPacket, origin: int, exclude: Set[int]) -> int:
        alive = self._alive(exclude)
        return origin if origin in alive else alive[0]


class StaticScheduler(Scheduler):
    """Stamp-hash placement: the static-allocation model of §3.3.

    Placement is a pure function of the task's level stamp over the set of
    *currently alive* processors.  After a failure the hash re-maps the
    dead processor's stamps onto survivors — the "reassignment" work the
    paper notes static allocation must perform.
    """

    name = "static"

    def place(self, packet: TaskPacket, origin: int, exclude: Set[int]) -> int:
        alive = self._alive(exclude)
        key = hash((packet.stamp.digits, packet.replica))
        return alive[key % len(alive)]


_SCHEDULERS = {
    cls.name: cls
    for cls in (
        GradientScheduler,
        RandomScheduler,
        RoundRobinScheduler,
        LocalScheduler,
        StaticScheduler,
    )
}


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by config name (unattached)."""
    cls = _SCHEDULERS.get(name)
    if cls is None:
        raise SchedulingError(f"unknown scheduler {name!r}")
    return cls()
