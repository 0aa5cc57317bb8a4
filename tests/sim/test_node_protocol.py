"""Node-level protocol tests: acks, results, duplicates, failure paths."""

from __future__ import annotations

import pytest

from repro.api import Experiment
from repro.config import CostModel, SimConfig
from repro.core import NoFaultTolerance, RollbackRecovery, SpliceRecovery
from repro.core.packets import SUPER_ROOT_NODE, ReturnAddress, TaskPacket, WorkSpec
from repro.core.stamps import LevelStamp
from repro.errors import DeterminacyViolationError, ProtocolError
from repro.sim import FaultSchedule, TreeWorkload
from repro.sim.failure import Fault
from repro.sim.machine import Machine
from repro.sim.messages import PlacementAck, ResultMsg, TaskPacketMsg
from repro.sim.node import Node
from repro.sim.task import SpawnRecord, SpawnState, TaskInstance, TaskStatus
from repro.workloads.trees import balanced_tree
from repro.sim.behavior import Demand, TreeSpec, TreeTaskSpec


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
        records = [r for t in m.instance_registry for r in t.spawn_records]
        assert len(records) == 7  # the host's one and the six spawns of the tree
        return records

    def test_spawn_records_move_to_placed(self, all_records):
        for record in all_records:
            assert record.state in (SpawnState.PLACED, SpawnState.FULFILLED)

    def test_ack_cancels_timer(self, all_records):
        for record in all_records:
            assert record.ack_timer is None

    def test_no_spurious_reissues_fault_free(self):
        m = small_machine()
        result = m.run()
        assert result.metrics.tasks_reissued == 0


    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a node still acts on an ack from a peer it has written off",
    )
    def test_an_ack_from_a_written_off_executor_is_not_acted_on(self):
        """Unreachable means faulty in both directions: a parent that has
        declared the executor dead files no checkpoint under it, keeps the
        record in transit and leaves the ack timer armed, so the spawn is
        re-placed on a live node."""
        m = small_machine()
        m._ran = True
        m._start_root_host()

        def in_transit():
            return next(
                (
                    (task, record)
                    for task in m.instance_registry
                    if task.node >= 0
                    for record in task.spawn_records
                    if record.state is SpawnState.IN_TRANSIT
                    and record.ack_timer is not None
                ),
                None,
            )

        while in_transit() is None:
            assert m.queue.step() is not None
        task, record = in_transit()
        parent = m.node(task.node)
        dead = next(n for n in range(m.config.n_processors) if n != parent.id)
        parent.known_dead.add(dead)
        parent.on_message(
            PlacementAck(
                src=dead, dst=parent.id, stamp=record.child_stamp, executor=dead,
                instance=m.new_task_uid(), parent_instance=task.uid,
            )
        )
        assert m.policy.table_of(parent).entry(dead) == []
        assert record.state is SpawnState.IN_TRANSIT
        assert record.ack_timer is not None


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
            t for t in m.instance_registry
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
            packet=m.instance_registry[0].packet,
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


class TestRecordLookup:
    """A parent's records are a list in demand order; a digit finds its
    record at its own index when it is an int demanded in order, by a scan
    otherwise, and a missing digit finds nothing."""

    @staticmethod
    def _holder(digits):
        work = WorkSpec(kind="apply", fn_name="f", args=(1,))
        task = TaskInstance(0, TaskPacket(LevelStamp.of(0), work, ReturnAddress(-1, 0)), 0)
        for digit in digits:
            stamp = task.stamp.child(digit)
            task.add_record(SpawnRecord(digit, stamp, TaskPacket(stamp, work, ReturnAddress(0, 0))))
        return task

    @pytest.mark.parametrize("digits", [(0, 1, 2), (2, 0, 1), (1, 3), ((0, 1), (2,), ())])
    def test_every_record_is_found_by_its_child_stamp(self, digits):
        task = self._holder(digits)
        assert [r.digit for r in task.spawn_records] == list(digits)  # demand order
        for record in task.spawn_records:
            assert task.record_for_child(record.child_stamp) is record
            assert task.record_for_digit(record.digit) is record
        for missing in (5, -1, (9,), 3 if 3 not in digits else 4):
            assert task.record_for_digit(missing) is None
            assert task.record_for_child(task.stamp.child(missing)) is None
        # a grandchild's or a stranger's stamp is nobody's child here
        assert task.record_for_child(task.spawn_records[0].child_stamp.child(0)) is None
        assert task.record_for_child(LevelStamp.of(1, digits[0])) is None

    def test_a_task_with_no_records_finds_nothing(self):
        task = self._holder(())
        assert task.spawn_records == ()
        assert task.record_for_digit(0) is None and task.record_for_digit((0,)) is None

    def test_a_program_run_finds_every_record_by_its_path_digit(self, monkeypatch):
        monkeypatch.setattr(TaskInstance, "retire", lambda self: None)
        spec = Experiment.workload("prog:tak:7:4:2").policy("rollback").processors(4).build()
        machine = Machine(spec.config(), spec.workload.build()[0](), spec.policy.build())
        assert machine.run().verified
        records = [(t, r) for t in machine.instance_registry for r in t.spawn_records]
        assert any(type(r.digit) is tuple for _, r in records)
        for task, record in records:
            assert task.record_for_child(record.child_stamp) is record

    @pytest.mark.parametrize("digits", [(0,), (1, 0), ((0, 1),)])
    def test_a_duplicate_demand_is_a_protocol_error(self, digits):
        m = small_machine()
        task = self._holder(())
        work = WorkSpec(kind="apply", fn_name="f", args=(1,))
        for digit in digits:
            m.node(0)._new_record(task, Demand(digit, work))
        with pytest.raises(ProtocolError, match="duplicate demand"):
            m.node(0)._new_record(task, Demand(digits[0], work))

    def test_children_share_their_parents_return_address(self):
        m = small_machine()
        task = self._holder(())
        work = WorkSpec(kind="apply", fn_name="f", args=(1,))
        first, second = (m.node(0)._new_record(task, Demand(d, work)) for d in (0, 1))
        assert first.packet.parent == ReturnAddress(0, task.uid)
        assert second.packet.parent is first.packet.parent


class TestTheRegistryIsTheUidMap:
    def test_live_tasks_are_the_instances_each_node_accepted(self, monkeypatch):
        """At every failure detection of a rollback storm, each node's
        live tasks are those of the instances it accepted (kept here the
        way a node once kept them, by uid) that are still live; the
        super-root's one instance is the root host."""
        accepted = {}  # node id -> {uid: instance}, the old per-node map
        accept = Node.accept_packet

        def recording_accept(node, packet):
            task = accept(node, packet)
            accepted.setdefault(node.id, {})[task.uid] = task
            return task

        checked = []
        detect = RollbackRecovery.on_failure_detected

        def checking_detect(policy, node, dead_node):
            host = policy.machine.instance(policy.machine.root_host_uid)
            accepted[SUPER_ROOT_NODE] = {host.uid: host}
            for each in policy.machine.all_nodes():
                live = [
                    t for t in accepted.get(each.id, {}).values()
                    if t.status in (TaskStatus.READY, TaskStatus.RUNNING, TaskStatus.SUSPENDED)
                ]
                assert each.live_tasks() == live
            checked.append(dead_node)
            detect(policy, node, dead_node)

        monkeypatch.setattr(Node, "accept_packet", recording_accept)
        monkeypatch.setattr(RollbackRecovery, "on_failure_detected", checking_detect)
        m = Machine(
            SimConfig(n_processors=8, seed=3),
            TreeWorkload(balanced_tree(6, 2, 20), "bal"),
            RollbackRecovery(),
        )
        result = m.run(faults=FaultSchedule.of(Fault(100.0, 1), Fault(180.0, 2), Fault(260.0, 3)))
        assert result.completed and result.verified
        assert len(checked) == m.metrics.failures_detected >= 3

    def test_a_message_for_another_nodes_instance_is_not_this_nodes(self):
        m = small_machine()
        m.run()
        task = next(t for t in m.instance_registry if t.node == 1)
        other = m.node(0)
        stray = ResultMsg(
            src=2, dst=0, sender_stamp=task.stamp.child(0), value=1,
            addressee=ReturnAddress(0, task.uid), sender_instance=task.uid,
        )
        before = m.metrics.results_ignored
        other._handle_result(stray)
        assert m.metrics.results_ignored == before + 1
        other.abort_completed_sender(stray, reason="orphan")
        assert task.status is TaskStatus.COMPLETED  # node 0 cannot abort node 1's task
