"""Tests for replicated-task execution with majority voting (§5.3)."""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.core import NoFaultTolerance, ReplicatedExecution
from repro.lang.programs import get_program
from repro.sim import Fault, FaultSchedule, InterpWorkload, TreeWorkload
from repro.sim.machine import run_simulation
from repro.workloads.trees import balanced_tree


def run(workload, policy, faults=FaultSchedule.none(), n=5, seed=0, **cfg):
    return run_simulation(
        workload,
        SimConfig(n_processors=n, seed=seed, **cfg),
        policy=policy,
        faults=faults,
    )


class TestFaultFree:
    def test_matches_oracle(self):
        result = run(InterpWorkload(get_program("fib", 7), name="fib"), ReplicatedExecution(k=3))
        assert result.completed and result.verified is True

    def test_votes_decided_for_every_record(self):
        result = run(TreeWorkload(balanced_tree(3, 2, 10), "bal"), ReplicatedExecution(k=3))
        m = result.metrics
        assert m.votes_decided > 0
        # every decision takes a majority (2 for k=3) of identical votes
        assert m.votes_recorded >= 2 * m.votes_decided

    def test_work_scales_with_k(self):
        """Fault-free task executions grow ~k-fold — the §5.3 price."""
        r1 = run(TreeWorkload(balanced_tree(3, 2, 10), "bal"), ReplicatedExecution(k=1))
        r3 = run(TreeWorkload(balanced_tree(3, 2, 10), "bal"), ReplicatedExecution(k=3))
        assert r3.metrics.tasks_accepted >= 2.5 * r1.metrics.tasks_accepted

    def test_k1_degenerates_to_plain_execution(self):
        result = run(TreeWorkload(balanced_tree(3, 2, 10), "bal"), ReplicatedExecution(k=1))
        assert result.completed and result.verified is True

    def test_k_from_config(self):
        result = run(
            TreeWorkload(balanced_tree(2, 2, 10), "bal"),
            ReplicatedExecution(),
            replication_factor=5,
        )
        assert result.completed and result.verified is True


class TestFaultMasking:
    @pytest.mark.parametrize("victim", [0, 2, 4])
    def test_single_fault_masked_without_recovery(self, victim):
        """k=3 tolerates any single failure with no reissue machinery."""
        result = run(
            TreeWorkload(balanced_tree(3, 2, 30), "bal"),
            ReplicatedExecution(k=3),
            faults=FaultSchedule.single(150.0, victim),
        )
        assert result.completed, result.stall_reason
        assert result.verified is True

    def test_fault_masked_in_language_workload(self):
        result = run(
            InterpWorkload(get_program("fib", 8), name="fib"),
            ReplicatedExecution(k=3),
            faults=FaultSchedule.single(300.0, 1),
        )
        assert result.completed and result.verified is True

    def test_k5_masks_two_faults(self):
        result = run(
            TreeWorkload(balanced_tree(3, 2, 30), "bal"),
            ReplicatedExecution(k=5),
            faults=FaultSchedule.of(Fault(100.0, 1), Fault(140.0, 2)),
            n=7,
        )
        assert result.completed, result.stall_reason
        assert result.verified is True

    def test_asynchronous_majority_beats_slowest(self):
        """'a node does not have to wait for the slowest answer' — the
        vote decides at the majority, so a dead replica's missing vote
        does not stall completion."""
        no_fault = run(
            TreeWorkload(balanced_tree(3, 2, 30), "bal"),
            ReplicatedExecution(k=3),
        )
        with_fault = run(
            TreeWorkload(balanced_tree(3, 2, 30), "bal"),
            ReplicatedExecution(k=3),
            faults=FaultSchedule.single(150.0, 1),
        )
        assert with_fault.completed
        # losing a processor may slow things, but not unboundedly: the
        # vote never waits on the dead replica
        assert with_fault.makespan < 4 * no_fault.makespan


class TestTmrBaseline:
    def test_tmr_is_k3(self):
        # Misunas' TMR, emulated by §5.3's packet replication
        policy = ReplicatedExecution(k=3)
        assert policy.k == 3 and policy.majority == 2
        result = run(
            TreeWorkload(balanced_tree(3, 2, 20), "bal"),
            policy,
            faults=FaultSchedule.single(120.0, 1),
        )
        assert result.completed and result.verified is True


class TestContrastWithNoFT:
    def test_same_fault_stalls_unreplicated_run(self):
        spec = balanced_tree(3, 2, 30)
        stalled = run(
            TreeWorkload(spec, "bal"),
            NoFaultTolerance(),
            faults=FaultSchedule.single(150.0, 1),
            n=5,
        )
        masked = run(
            TreeWorkload(spec, "bal"),
            ReplicatedExecution(k=3),
            faults=FaultSchedule.single(150.0, 1),
        )
        assert not stalled.completed
        assert masked.completed and masked.verified is True
