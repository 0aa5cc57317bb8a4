"""End-to-end tests for splice recovery (paper §4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, SimConfig
from repro.core import RollbackRecovery, SpliceRecovery
from repro.lang.programs import get_program
from repro.sim import Fault, FaultSchedule, InterpWorkload, TreeWorkload
from repro.sim.behavior import TreeSpec, TreeTaskSpec
from repro.sim.machine import run_simulation
from repro.workloads.figure1 import pinned_machine
from repro.workloads.trees import balanced_tree, chain_tree, random_tree


def run(workload, policy, faults=FaultSchedule.none(), seed=0, n=4, **cfg):
    return run_simulation(
        workload,
        SimConfig(n_processors=n, seed=seed, **cfg),
        policy=policy,
        faults=faults,
    )


class TestFaultFree:
    def test_matches_oracle(self):
        result = run(InterpWorkload(get_program("tak", 7, 4, 2), name="tak"), SpliceRecovery())
        assert result.completed and result.verified is True

    def test_no_twins_without_faults(self):
        result = run(TreeWorkload(balanced_tree(4, 2, 10), "bal"), SpliceRecovery())
        assert result.metrics.twins_created == 0
        assert result.metrics.results_salvaged == 0
        assert result.metrics.steps_wasted == 0


class TestSingleFault:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_recovers_from_any_processor(self, victim):
        result = run(
            InterpWorkload(get_program("fib", 9), name="fib"),
            SpliceRecovery(),
            faults=FaultSchedule.single(300.0, victim),
        )
        assert result.completed, result.stall_reason
        assert result.verified is True

    @pytest.mark.parametrize("t", [50.0, 250.0, 600.0, 1000.0])
    def test_recovers_at_any_time(self, t):
        result = run(
            InterpWorkload(get_program("binomial", 9, 4), name="binom"),
            SpliceRecovery(),
            faults=FaultSchedule.single(t, 2),
        )
        assert result.completed and result.verified is True

    def test_salvage_happens_on_late_faults(self):
        spec = balanced_tree(4, 2, 60)
        base = run(TreeWorkload(spec, "bal"), SpliceRecovery())
        result = run(
            TreeWorkload(spec, "bal"),
            SpliceRecovery(),
            faults=FaultSchedule.single(0.6 * base.makespan, 1),
        )
        assert result.completed and result.verified is True
        assert result.metrics.results_salvaged > 0
        assert result.metrics.twins_created > 0

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="nothing writes Metrics.steps_salvaged; a fix moves record bytes "
        "and the golden digests",
    )
    def test_salvaged_results_count_their_steps(self):
        # six results are spliced into twins, yet the steps behind them
        # read 0: the field the metric table prints is never written
        from repro.api import Experiment, Session

        spec = (
            Experiment.workload("balanced:4:2:60").policy("splice").processors(4)
            .seed(0).fault(0.5, 1).build()
        )
        metrics = Session().run(spec).result.metrics
        assert metrics.results_salvaged == 6
        assert metrics.steps_salvaged > 0

    def test_salvage_beats_rollback_in_orphan_dominant_regime(self):
        """Splice's whole point: when orphan subtrees can finish their
        work, their results are inherited instead of recomputed.  A
        two-level tree with long leaves and a slow detector makes the
        reroute path carry recovery: splice wastes decisively less and
        finishes sooner than rollback for the same mid-run fault."""
        from repro.config import CostModel

        spec = balanced_tree(2, 4, 150)
        cost = CostModel(detector_delay=400.0, detection_timeout=20.0)

        def go(policy, faults=FaultSchedule.none()):
            return run_simulation(
                TreeWorkload(spec, "two-level"),
                SimConfig(n_processors=4, seed=0, cost=cost),
                policy=policy,
                faults=faults,
                collect_trace=False,
            )

        base = go(RollbackRecovery())
        for frac in (0.5, 0.7):
            fault = FaultSchedule.single(frac * base.makespan, 1)
            r_roll = go(RollbackRecovery(), fault)
            r_splice = go(SpliceRecovery(), fault)
            assert r_roll.completed and r_splice.completed
            assert r_splice.verified is True and r_roll.verified is True
            assert r_splice.metrics.results_salvaged > 0
            assert r_splice.metrics.steps_wasted < r_roll.metrics.steps_wasted
            assert r_splice.makespan <= r_roll.makespan


class TestOrphanPaths:
    def _pinned_machine(self, spec, pins, policy, detector_delay=30.0, n=4, pin_once=True):
        return pinned_machine(
            spec, pins, policy, "pinned", n_processors=n, pin_once=pin_once,
            cost=CostModel(detector_delay=detector_delay, detection_timeout=15.0),
        )

    def test_orphan_result_rerouted_to_grandparent(self):
        spec = TreeSpec(
            {
                0: TreeTaskSpec(0, 5, (1,)),
                1: TreeTaskSpec(1, 5, (2,)),
                2: TreeTaskSpec(2, 200, ()),
            }
        )
        machine = self._pinned_machine(spec, {0: 0, 1: 1, 2: 2}, SpliceRecovery(),
                                       detector_delay=5000.0)
        result = machine.run(faults=FaultSchedule.single(60.0, 1))
        assert result.completed and result.verified is True
        assert result.metrics.results_orphan_rerouted == 1
        assert result.metrics.results_salvaged == 1
        # the child ran exactly once: no recomputation at all
        accepts = [r for r in result.trace.of_kind("task_accepted")
                   if r.detail["work"] == "<tree 2>"]
        assert len(accepts) == 1

    def test_stranded_orphan_aborts_when_grandparent_also_dead(self):
        """§5.2: parent and grandparent failing together defeats splice for
        that orphan; the topmost reissue above them still recovers."""
        spec = TreeSpec(
            {
                0: TreeTaskSpec(0, 5, (1,)),  # G on node 1
                1: TreeTaskSpec(1, 5, (2,)),  # P on node 2
                2: TreeTaskSpec(2, 150, ()),  # C on node 3 — the orphan
            }
        )
        machine = self._pinned_machine(
            spec, {0: 1, 1: 2, 2: 3}, SpliceRecovery(), detector_delay=5000.0
        )
        # Kill P's and G's nodes together after C is running.
        result = machine.run(
            faults=FaultSchedule.of(Fault(60.0, 1), Fault(60.0, 2))
        )
        assert result.completed, result.stall_reason
        assert result.verified is True
        # the orphan's return found both parent and grandparent dead
        aborted = [r for r in result.trace.of_kind("task_aborted")
                   if r.detail.get("reason") == "stranded-orphan"]
        assert len(aborted) == 1

    def test_duplicate_result_ignored_case7(self):
        spec = TreeSpec(
            {
                0: TreeTaskSpec(0, 5, (1, 4)),
                1: TreeTaskSpec(1, 5, (2, 3)),
                2: TreeTaskSpec(2, 300, (), chunk=20),
                3: TreeTaskSpec(3, 900, ()),
                4: TreeTaskSpec(4, 900, (), chunk=20),
            }
        )
        machine = self._pinned_machine(
            spec, {0: 0, 1: 1, 2: 2, 3: 3, 4: 2}, SpliceRecovery(), detector_delay=10.0
        )
        result = machine.run(faults=FaultSchedule.single(40.0, 1))
        assert result.completed and result.verified is True
        assert result.metrics.results_duplicate >= 1

    def test_result_after_twin_completed_discarded_case8(self):
        spec = TreeSpec(
            {
                0: TreeTaskSpec(0, 5, (1, 4)),
                1: TreeTaskSpec(1, 5, (2,)),
                2: TreeTaskSpec(2, 300, (), chunk=20),
                4: TreeTaskSpec(4, 900, (), chunk=20),
            }
        )
        machine = self._pinned_machine(
            spec, {0: 0, 1: 1, 2: 2, 4: 2}, SpliceRecovery(), detector_delay=10.0
        )
        result = machine.run(faults=FaultSchedule.single(40.0, 1))
        assert result.completed and result.verified is True
        assert result.metrics.results_ignored >= 1


class TestMultiFault:
    def test_disjoint_branch_faults_recover_in_parallel(self):
        """§5.2: 'multiple failures on different branches of a structure do
        not disturb the recovery algorithm at all.'"""
        result = run(
            TreeWorkload(balanced_tree(4, 3, 30), "bal"),
            SpliceRecovery(),
            faults=FaultSchedule.of(Fault(200.0, 1), Fault(200.0, 4)),
            n=6,
        )
        assert result.completed, result.stall_reason
        assert result.verified is True

    def test_sequential_faults(self):
        """Regression: racing activation lineages (cases 6/7 after fault 2)
        both spawn the same child stamp; the checkpoint table must keep a
        recovery point per *lineage*, or the live chain deadlocks when the
        third processor dies (stamp-only suppression lost exactly this
        run before the instance-covers refinement)."""
        result = run(
            InterpWorkload(get_program("fib", 10), name="fib"),
            SpliceRecovery(),
            faults=FaultSchedule.of(Fault(200.0, 1), Fault(700.0, 2), Fault(1200.0, 3)),
            n=6,
        )
        assert result.completed, result.stall_reason
        assert result.verified is True

    def test_twin_node_dies_too(self):
        """The twin's own processor can die; the next reissue re-twins."""
        spec = chain_tree(10, 60)
        base = run(TreeWorkload(spec, "chain"), SpliceRecovery())
        result = run(
            TreeWorkload(spec, "chain"),
            SpliceRecovery(),
            faults=FaultSchedule.of(
                Fault(0.3 * base.makespan, 1), Fault(0.5 * base.makespan, 2)
            ),
            n=5,
        )
        assert result.completed, result.stall_reason
        assert result.verified is True


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    victim=st.integers(min_value=0, max_value=3),
    fault_frac=st.floats(min_value=0.05, max_value=1.2),
)
def test_recovery_correctness_property(seed, victim, fault_frac):
    """The §4.3 correctness criterion, for splice."""
    spec = random_tree(seed=seed, target_tasks=40, max_fanout=3, work_range=(5, 40))
    base = run_simulation(
        TreeWorkload(spec, "rand"),
        SimConfig(n_processors=4, seed=seed),
        policy=SpliceRecovery(),
        collect_trace=False,
    )
    assert base.completed
    result = run_simulation(
        TreeWorkload(spec, "rand"),
        SimConfig(n_processors=4, seed=seed),
        policy=SpliceRecovery(),
        faults=FaultSchedule.single(max(1.0, fault_frac * base.makespan), victim),
        collect_trace=False,
    )
    assert result.completed, result.stall_reason
    assert result.verified is True
