"""End-to-end machine tests: fault-free execution, determinism, oracle
equivalence across workloads, topologies, and schedulers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, SimConfig
from repro.core import NoFaultTolerance, RollbackRecovery
from repro.errors import SimError
from repro.lang.programs import PROGRAMS, expected_answer, get_program
from repro.sim import FaultSchedule, InterpWorkload, Machine, TreeWorkload
from repro.sim.machine import run_simulation
from repro.workloads.suite import WORKLOADS, get_workload
from repro.workloads.trees import balanced_tree, random_tree


class TestFaultFreeOracle:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_every_program_matches_oracle(self, name):
        result = run_simulation(
            InterpWorkload(get_program(name), name=name),
            SimConfig(n_processors=4, seed=3),
            policy=NoFaultTolerance(),
            collect_trace=False,
        )
        assert result.completed
        assert result.verified is True
        assert result.value == expected_answer(name)

    @pytest.mark.parametrize("wname", sorted(WORKLOADS))
    def test_every_suite_workload_runs(self, wname):
        result = run_simulation(
            get_workload(wname),
            SimConfig(n_processors=4, seed=5),
            policy=RollbackRecovery(),
            collect_trace=False,
        )
        assert result.completed and result.verified is True

    @pytest.mark.parametrize("topology,n", [
        ("complete", 4), ("ring", 5), ("mesh", 6), ("hypercube", 4), ("star", 4),
    ])
    def test_every_topology(self, topology, n):
        result = run_simulation(
            InterpWorkload(get_program("fib", 8), name="fib"),
            SimConfig(n_processors=n, topology=topology, seed=1),
            policy=NoFaultTolerance(),
            collect_trace=False,
        )
        assert result.completed and result.verified is True

    @pytest.mark.parametrize("scheduler", ["gradient", "random", "round_robin", "local", "static"])
    def test_every_scheduler(self, scheduler):
        result = run_simulation(
            InterpWorkload(get_program("fib", 8), name="fib"),
            SimConfig(n_processors=4, scheduler=scheduler, seed=1),
            policy=NoFaultTolerance(),
            collect_trace=False,
        )
        assert result.completed and result.verified is True

    def test_single_processor(self):
        result = run_simulation(
            InterpWorkload(get_program("fib", 7), name="fib"),
            SimConfig(n_processors=1, seed=0),
            policy=NoFaultTolerance(),
        )
        assert result.completed and result.verified is True

    def test_latency_jitter_preserves_answer(self):
        cost = CostModel(latency_jitter=4.0)
        result = run_simulation(
            InterpWorkload(get_program("fib", 8), name="fib"),
            SimConfig(n_processors=4, seed=9, cost=cost),
            policy=NoFaultTolerance(),
        )
        assert result.completed and result.verified is True


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def one():
            return run_simulation(
                InterpWorkload(get_program("fib", 8), name="fib"),
                SimConfig(n_processors=4, seed=42,
                          cost=CostModel(latency_jitter=3.0)),
                policy=RollbackRecovery(),
            )

        a, b = one(), one()
        assert a.makespan == b.makespan
        assert [str(r) for r in a.trace] == [str(r) for r in b.trace]

    def test_different_seed_same_answer(self):
        values = set()
        for seed in range(4):
            result = run_simulation(
                InterpWorkload(get_program("nqueens", 4), name="nq"),
                SimConfig(n_processors=4, seed=seed,
                          cost=CostModel(latency_jitter=5.0)),
                policy=NoFaultTolerance(),
                collect_trace=False,
            )
            assert result.completed
            values.add(result.value)
        assert values == {2}

    def test_stamp_set_invariant_across_seeds(self):
        """The set of logical task stamps is a function of the program
        alone (§3.1), not of scheduling."""

        def stamps(seed):
            machine = Machine(
                SimConfig(n_processors=4, seed=seed, cost=CostModel(latency_jitter=5.0)),
                InterpWorkload(get_program("fib", 7), name="fib"),
                NoFaultTolerance(),
            )
            machine.run()
            return {
                str(t.stamp) for t in machine.instance_registry
            }

        assert stamps(1) == stamps(99)


class TestMachineMechanics:
    def test_single_shot(self):
        machine = Machine(
            SimConfig(n_processors=2, seed=0),
            TreeWorkload(balanced_tree(2, 2, 5), "bal"),
            NoFaultTolerance(),
        )
        machine.run()
        with pytest.raises(SimError):
            machine.run()

    def test_fault_on_unknown_processor_rejected(self):
        machine = Machine(
            SimConfig(n_processors=2, seed=0),
            TreeWorkload(balanced_tree(2, 2, 5), "bal"),
            NoFaultTolerance(),
        )
        with pytest.raises(SimError):
            machine.run(faults=FaultSchedule.single(10.0, 7))

    def test_stall_reported_not_raised(self):
        result = run_simulation(
            TreeWorkload(balanced_tree(3, 2, 30), "bal"),
            SimConfig(n_processors=3, seed=0),
            policy=NoFaultTolerance(),
            faults=FaultSchedule.single(100.0, 1),
        )
        assert not result.completed
        assert result.stall_reason is not None
        assert not result.correct

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Machine(
                SimConfig(n_processors=0),
                TreeWorkload(balanced_tree(1, 2, 5), "bal"),
            )
        with pytest.raises(ValueError):
            SimConfig(topology="nope").validate()
        with pytest.raises(ValueError):
            SimConfig(n_processors=6, topology="hypercube").validate()

    def test_metrics_accounting(self):
        result = run_simulation(
            TreeWorkload(balanced_tree(3, 2, 10), "bal"),
            SimConfig(n_processors=4, seed=0),
            policy=NoFaultTolerance(),
        )
        m = result.metrics
        # 15 tree tasks + root host
        assert m.tasks_accepted == 15
        assert m.tasks_completed == 16
        assert m.steps_total > 0
        assert m.messages_total > 0
        assert m.steps_wasted == 0

    def test_utilization_bounded(self):
        result = run_simulation(
            TreeWorkload(balanced_tree(4, 2, 20), "bal"),
            SimConfig(n_processors=4, seed=0),
            policy=NoFaultTolerance(),
        )
        for node, util in result.metrics.utilization(result.makespan).items():
            assert 0.0 <= util <= 1.0 + 1e-9

    def test_summary_strings(self):
        result = run_simulation(
            TreeWorkload(balanced_tree(2, 2, 5), "bal"),
            SimConfig(n_processors=2, seed=0),
            policy=RollbackRecovery(),
        )
        assert "completed" in result.summary()
        assert "verified" in result.summary()


class TestParallelism:
    def test_more_processors_not_slower(self):
        """Wide workloads must get real speedup from the substrate."""
        from repro.workloads.trees import wide_tree

        spec = wide_tree(32, work=100)
        times = {}
        for n in (1, 4, 8):
            result = run_simulation(
                TreeWorkload(spec, "wide"),
                SimConfig(n_processors=n, seed=0),
                policy=NoFaultTolerance(),
                collect_trace=False,
            )
            assert result.completed
            times[n] = result.makespan
        assert times[4] < times[1]
        assert times[8] <= times[4]
        # speedup on 32 independent 100-step leaves should be substantial
        assert times[1] / times[4] > 2.0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=8),
    scheduler=st.sampled_from(["gradient", "random", "round_robin", "static"]),
)
def test_random_tree_oracle_property(seed, n, scheduler):
    """Any random tree on any machine shape computes its spec's value."""
    spec = random_tree(seed=seed, target_tasks=30, max_fanout=4)
    result = run_simulation(
        TreeWorkload(spec, "rand"),
        SimConfig(n_processors=n, seed=seed, scheduler=scheduler),
        policy=NoFaultTolerance(),
        collect_trace=False,
    )
    assert result.completed
    assert result.value == spec.expected_value()
