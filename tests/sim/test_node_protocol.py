"""Node-level protocol tests: acks, results, duplicates, failure paths."""

from __future__ import annotations

import pytest

from repro.config import CostModel, SimConfig
from repro.core import NoFaultTolerance, RollbackRecovery, SpliceRecovery
from repro.core.packets import SUPER_ROOT_NODE, ReturnAddress
from repro.core.stamps import LevelStamp
from repro.errors import DeterminacyViolationError, ProtocolError
from repro.sim import FaultSchedule, TreeWorkload
from repro.sim.machine import Machine
from repro.sim.messages import ResultMsg, TaskPacketMsg
from repro.sim.task import SpawnState, TaskInstance, TaskStatus
from repro.workloads.trees import balanced_tree
from repro.sim.behavior import TreeSpec, TreeTaskSpec


def small_machine(policy=None, n=3, seed=0, **cost_kw):
    return Machine(
        SimConfig(n_processors=n, seed=seed, cost=CostModel(**cost_kw)),
        TreeWorkload(balanced_tree(2, 2, 10), "bal"),
        policy if policy is not None else RollbackRecovery(),
    )


class TestAcks:
    @pytest.fixture
    def all_records(self, monkeypatch):
        """Every spawn record of a finished run: a retired task drops its
        records, so the run keeps them by never retiring."""
        monkeypatch.setattr(TaskInstance, "retire", lambda self: None)
        m = small_machine()
        assert m.run().completed
        records = [r for t in m.instance_registry.values() for r in t.spawn_records.values()]
        assert len(records) == 7  # the host's one and the six spawns of the tree
        return records

    def test_spawn_records_move_to_placed(self, all_records):
        for record in all_records:
            assert record.state in (SpawnState.PLACED, SpawnState.FULFILLED)

    def test_ack_cancels_timer(self, all_records):
        for record in all_records:
            assert record.ack_timer is None or record.ack_timer.cancelled

    def test_no_spurious_reissues_fault_free(self):
        m = small_machine()
        result = m.run()
        assert result.metrics.tasks_reissued == 0


class TestResultPaths:
    def test_unknown_addressee_ignored(self):
        """The §4.2 rule of thumb: unknown packets are ignored."""
        m = small_machine()
        result = m.run()
        node = m.node(0)
        stray = ResultMsg(
            src=1,
            dst=0,
            sender_stamp=LevelStamp.of(0, 9),
            value=1,
            addressee=ReturnAddress(0, 99_999),
        )
        before = m.metrics.results_ignored
        node._handle_result(stray)
        assert m.metrics.results_ignored == before + 1

    def test_duplicate_equal_results_ignored(self):
        m = small_machine()
        result = m.run()
        # replay a legitimate delivered result: must be flagged duplicate
        host = m.instance_registry[m.root_host_uid]
        record = host.spawn_records[0]
        msg = ResultMsg(
            src=record.executor,
            dst=SUPER_ROOT_NODE,
            sender_stamp=record.child_stamp,
            value=record.result,
            addressee=ReturnAddress(SUPER_ROOT_NODE, host.uid),
        )
        before = m.metrics.results_duplicate
        # host completed, so this lands in the case-8 discard path
        m.super_root._handle_result(msg)
        assert (
            m.metrics.results_duplicate + m.metrics.results_ignored
            >= before + 1
        )

    def test_conflicting_duplicate_raises_determinacy_violation(self):
        spec = TreeSpec({0: TreeTaskSpec(0, 5, (1,)), 1: TreeTaskSpec(1, 500, ())})
        m = Machine(
            SimConfig(n_processors=2, seed=0),
            TreeWorkload(spec, "t"),
            RollbackRecovery(),
        )
        # run until the root's child record exists but is unfulfilled
        m._start_root_host()
        m.queue.run(until=lambda: m.metrics.tasks_accepted >= 2, max_events=5000)
        root_task = next(
            t for t in m.instance_registry.values()
            if t.stamp == LevelStamp.of(0)
        )
        record = root_task.spawn_records[0]
        node = m.node(root_task.node)
        good = ResultMsg(
            src=0, dst=root_task.node,
            sender_stamp=record.child_stamp, value=123,
            addressee=ReturnAddress(root_task.node, root_task.uid),
        )
        node._handle_result(good)
        conflicting = ResultMsg(
            src=0, dst=root_task.node,
            sender_stamp=record.child_stamp, value=456,
            addressee=ReturnAddress(root_task.node, root_task.uid),
        )
        with pytest.raises(DeterminacyViolationError):
            node._handle_result(conflicting)


class TestFailureMechanics:
    def test_kill_aborts_resident_tasks(self):
        m = small_machine()
        m._start_root_host()
        m.queue.run(until=lambda: m.metrics.tasks_accepted >= 3, max_events=5000)
        victim = next(n for n in m.processors() if n.live_tasks())
        live_before = len(victim.live_tasks())
        victim.kill()
        assert not victim.alive
        assert victim.live_tasks() == []
        assert victim.load() == 0

    def test_failure_notice_idempotent(self):
        m = small_machine()
        result = m.run()
        node = m.node(0)
        before = m.metrics.failures_detected
        node.on_failure_notice(1)
        node.on_failure_notice(1)
        assert m.metrics.failures_detected == before + 1

    def test_super_root_rejects_task_packets(self):
        m = small_machine()
        m.run()
        packet_msg = TaskPacketMsg(
            src=0,
            dst=SUPER_ROOT_NODE,
            packet=next(iter(m.instance_registry.values())).packet,
        )
        with pytest.raises(ProtocolError):
            m.super_root.on_message(packet_msg)

    def test_detection_latency_measured(self):
        m = small_machine(detector_delay=25.0)
        trace = m.run(faults=FaultSchedule.single(50.0, 1)).trace
        failed = trace.of_kind("node_failed")[0].time
        detected = trace.of_kind("failure_detected")[0].time
        assert detected - failed >= 25.0


class TestAckTimeoutRecovery:
    def test_packet_lost_to_dying_node_reissued(self):
        """A packet in flight toward a node that dies before delivery is
        re-placed (state-b recovery, §4.3.2)."""
        spec = TreeSpec(
            {
                0: TreeTaskSpec(0, 50, tuple(range(1, 9))),
                **{i: TreeTaskSpec(i, 60, ()) for i in range(1, 9)},
            }
        )
        m = Machine(
            SimConfig(n_processors=4, seed=0),
            TreeWorkload(spec, "fan"),
            RollbackRecovery(),
        )
        # kill node 2 just as the fan-out packets are in flight
        result = m.run(faults=FaultSchedule.single(54.0, 2))
        assert result.completed, result.stall_reason
        assert result.verified is True
