"""Tests for super-root root-task recovery (§4.3.1).

The super-root is machine node ``-1``, a regular node running the
regular protocol; its host task's spawn record for the user root is the
pre-evaluation checkpoint, read here straight off the machine.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.core import NoFaultTolerance, RollbackRecovery, SpliceRecovery
from repro.core.packets import SUPER_ROOT_NODE
from repro.core.stamps import LevelStamp
from repro.sim import FaultSchedule, TreeWorkload
from repro.sim.machine import Machine
from repro.workloads.trees import balanced_tree

#: The user root is the super-root host task's single child.
ROOT_TASK_STAMP = LevelStamp.of(0)


def machine(policy, n=4, seed=0):
    return Machine(
        SimConfig(n_processors=n, seed=seed),
        TreeWorkload(balanced_tree(3, 2, 25), "bal"),
        policy,
    )


def root_record(m):
    """The super-root host's spawn record for the user root, if demanded."""
    return m.instance(m.root_host_uid).record_for_digit(0)


class TestSuperRootBasics:
    def test_the_super_root_hosts_the_root_demand(self):
        m = machine(RollbackRecovery())
        m._start_root_host()
        assert SUPER_ROOT_NODE == -1
        assert m.instance(m.root_host_uid).node == SUPER_ROOT_NODE
        assert all(node.id != SUPER_ROOT_NODE for node in m.processors())

    def test_root_checkpoint_exists_before_completion(self):
        m = machine(RollbackRecovery())
        m._start_root_host()
        # after starting, the host has demanded the root: the retained
        # packet is the pre-evaluation checkpoint
        m.queue.run(until=lambda: root_record(m) is not None, max_events=100)
        packet = root_record(m).packet
        assert packet is not None
        assert packet.stamp == ROOT_TASK_STAMP

    def test_super_root_never_fails_validation(self):
        from repro.sim.failure import Fault

        with pytest.raises(ValueError):
            Fault(10.0, SUPER_ROOT_NODE)


class TestRootFailure:
    @pytest.mark.parametrize("policy_cls", [RollbackRecovery, SpliceRecovery])
    def test_root_task_recovered_when_its_node_dies(self, policy_cls):
        """The pre-evaluation checkpoint regenerates the root: no user
        restart needed."""
        # probe: find where the root landed and when it completes
        probe = machine(policy_cls())
        probe_result = probe.run()
        assert probe_result.completed
        executor = None
        for rec in probe_result.trace.of_kind("task_accepted"):
            if rec.detail["stamp"] == str(ROOT_TASK_STAMP):
                executor = rec.node
                break
        assert executor is not None

        m = machine(policy_cls())
        result = m.run(faults=FaultSchedule.single(probe_result.makespan * 0.4, executor))
        assert result.completed, result.stall_reason
        assert result.verified is True
        # the root stamp was activated at least twice
        root_accepts = [
            r for r in result.trace.of_kind("task_accepted")
            if r.detail["stamp"] == str(ROOT_TASK_STAMP)
        ]
        assert len(root_accepts) >= 2

    def test_without_recovery_root_failure_stalls(self):
        probe = machine(NoFaultTolerance())
        probe_result = probe.run()
        executor = next(
            r.node
            for r in probe_result.trace.of_kind("task_accepted")
            if r.detail["stamp"] == str(ROOT_TASK_STAMP)
        )
        m = machine(NoFaultTolerance())
        result = m.run(faults=FaultSchedule.single(probe_result.makespan * 0.4, executor))
        assert not result.completed

    def test_root_executor_tracked(self):
        m = machine(RollbackRecovery())
        result = m.run()
        assert result.completed
        # after completion the record is fulfilled; executor was recorded
        assert root_record(m).executor is not None
