"""Tests for load-balancing schedulers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core import NoFaultTolerance
from repro.errors import SchedulingError
from repro.sim import FaultSchedule, TreeWorkload
from repro.sim.loadbalance import make_scheduler
from repro.sim.machine import Machine, run_simulation
from repro.workloads.trees import balanced_tree, wide_tree


def machine_with(scheduler_name, n=4, workload=None, seed=0):
    return Machine(
        SimConfig(n_processors=n, seed=seed, scheduler=scheduler_name),
        workload if workload is not None else TreeWorkload(wide_tree(24, 60), "wide"),
        NoFaultTolerance(),
    )


class TestMakeScheduler:
    def test_known_names(self):
        for name in ("gradient", "random", "round_robin", "local", "static"):
            scheduler = make_scheduler(name)
            assert scheduler.name == name and scheduler.machine is None
            # the machine binds itself, its topology and its streams
            machine = Machine(
                SimConfig(n_processors=4), TreeWorkload(wide_tree(2, 10), "wide"),
                scheduler=scheduler,
            )
            assert machine.scheduler is scheduler and scheduler.machine is machine
            assert (scheduler.topology, scheduler.rng) == (machine.topology, machine.rng)

    def test_unknown_name(self):
        with pytest.raises(SchedulingError):
            make_scheduler("magic")


class TestPlacementSpread:
    @pytest.mark.parametrize("name", ["gradient", "random", "round_robin", "static"])
    def test_spreads_wide_fanout(self, name):
        """24 independent leaves must not all land on one processor."""
        m = machine_with(name)
        result = m.run()
        assert result.completed
        used = {
            t.node
            for t in m.instance_registry
            if t.node >= 0 and t.packet.work.tree_node not in (None, 0)
        }
        assert len(used) >= 3

    def test_local_keeps_everything_on_origin(self):
        m = machine_with("local")
        result = m.run()
        assert result.completed
        # with local placement the first processor hosts all real tasks
        used = {t.node for t in m.instance_registry if t.node >= 0}
        assert used == {0}

    def test_gradient_prefers_idle(self):
        m = machine_with("gradient")
        result = m.run()
        util = result.metrics.utilization(result.makespan)
        busy = [u for node, u in util.items() if node >= 0]
        # no processor should be starved on an embarrassingly parallel load
        assert min(busy) > 0.0

    def test_static_is_stamp_deterministic(self):
        placements = []
        for _ in range(2):
            m = machine_with("static")
            m.run()
            placements.append(
                sorted(
                    (str(t.stamp), t.node)
                    for t in m.instance_registry
                    if t.node >= 0
                )
            )
        assert placements[0] == placements[1]


class TestExclusion:
    def test_dead_nodes_never_chosen(self):
        result = run_simulation(
            TreeWorkload(balanced_tree(4, 2, 20), "bal"),
            SimConfig(n_processors=4, seed=0, scheduler="random"),
            policy=NoFaultTolerance(),
            faults=FaultSchedule.single(10_000.0, 1),  # never fires
        )
        assert result.completed

    def test_no_alive_processors_raises(self):
        m = machine_with("gradient", n=2)
        m._start_root_host()
        m.queue.run(until=lambda: m.metrics.tasks_accepted >= 1, max_events=2000)
        for node in m.processors():
            node.kill()
        from repro.core.packets import TaskPacket, ReturnAddress, WorkSpec
        from repro.core.stamps import LevelStamp

        packet = TaskPacket(
            stamp=LevelStamp.of(0, 5),
            work=WorkSpec(kind="tree", tree_node=0),
            parent=ReturnAddress(0, 0),
        )
        with pytest.raises(SchedulingError):
            m.scheduler.place(packet, 0, set())


def _reference_place(self, origin, exclude):
    """The list-building ``GradientScheduler.place`` body this repo shipped
    before the single-pass one, kept as the reference it must agree with."""
    alive_nodes = self._alive_nodes(exclude)
    alive = [n.id for n in alive_nodes]
    origin_alive = origin in alive
    if origin_alive:
        o = self.machine.node(origin)
        if not (o.run_queue or o.current is not None or o.inbound_pending):
            return origin
    idle = [
        n.id
        for n in alive_nodes
        if not (n.run_queue or n.current is not None or n.inbound_pending)
    ]
    if idle:
        # nearest idle processor; ties broken by node id (deterministic)
        if origin_alive or origin == -1:
            src = origin if origin != -1 else idle[0]
        else:
            src = idle[0]
        hops = self.topology.hops
        return min(idle, key=lambda n: (hops(src, n), n))
    # no idle processor: diffuse toward the least-loaded neighbour
    if origin_alive:
        alive_set = set(alive)
        candidates = [
            n for n in self.topology.neighbours(origin) if n in alive_set
        ] + [origin]
    else:
        candidates = alive
    return min(candidates, key=lambda n: (self._load(n), n))


_SIZES = {"complete": (1, 2, 5, 8), "ring": (1, 2, 5, 8), "mesh": (2, 6, 9), "hypercube": (2, 4, 8)}
#: (alive, excluded, run-queue length, executing, inbound packets)
_IDLE = (True, False, 0, False, 0)
_loaded = st.tuples(
    st.just(True), st.just(False), st.integers(0, 3), st.booleans(), st.integers(0, 2)
).filter(lambda s: s[2] or s[3] or s[4])
_node_state = st.one_of(
    st.just(_IDLE),
    _loaded,
    st.just((False, False, 0, False, 0)),  # dead, not yet known dead
    st.just((False, True, 2, True, 1)),  # dead and known dead
    st.just((True, True, 0, False, 0)),  # alive but excluded by the caller
)


@st.composite
def _machine_states(draw):
    kind = draw(st.sampled_from(sorted(_SIZES)))
    n = draw(st.sampled_from(_SIZES[kind]))
    # Machines with idle processors exercise the nearest-idle rule,
    # machines without any exercise pressure diffusion.
    per_node = _node_state if draw(st.booleans()) else _node_state.filter(lambda s: s != _IDLE)
    states = draw(st.lists(per_node, min_size=n, max_size=n))
    origin = draw(st.integers(-1, n - 1))
    return kind, states, origin


_BUSY = (True, False, 1, True, 0)


class TestSinglePassGradient:
    @staticmethod
    def _check(kind, states, origin):
        m = Machine(
            SimConfig(n_processors=len(states), topology=kind),
            TreeWorkload(wide_tree(2, 10), "wide"),
            NoFaultTolerance(),
        )
        exclude = set()
        for node, (alive, excluded, queued, running, inbound) in zip(m.processors(), states):
            node.alive = alive
            if excluded:
                exclude.add(node.id)
            node.run_queue.extend(range(queued))
            node.current = 99 if running else None
            node.inbound_pending = inbound
        try:
            want = _reference_place(m.scheduler, origin, exclude)
        except SchedulingError:
            with pytest.raises(SchedulingError, match="no alive processors"):
                m.scheduler.place(None, origin, exclude)
            return None
        assert m.scheduler.place(None, origin, exclude) == want
        return want

    @settings(max_examples=300, deadline=None)
    @given(_machine_states())
    def test_agrees_with_list_building_reference(self, state):
        self._check(*state)

    def test_equidistant_idle_tie_goes_to_lowest_id(self):
        # ring of 8, loaded origin 0: processors 2 and 6 are both two hops away
        states = [_BUSY, _BUSY, _IDLE, _BUSY, _BUSY, _BUSY, _IDLE, _BUSY]
        assert self._check("ring", states, 0) == 2

    def test_equal_load_tie_goes_to_lowest_id(self):
        states = [(True, False, 2, True, 0)] + [_BUSY] * 4
        assert self._check("ring", states, 0) == 1  # neighbours 1 and 4 tie

    def test_no_alive_processors(self):
        dead = (False, False, 0, False, 0)
        assert self._check("complete", [dead, dead], -1) is None
        assert self._check("complete", [dead, (True, True, 0, False, 0)], 0) is None
