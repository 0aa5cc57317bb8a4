"""End-to-end tests for rollback recovery (paper §3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core import NoFaultTolerance, RollbackRecovery
from repro.lang.programs import get_program
from repro.sim import Fault, FaultSchedule, InterpWorkload, Machine, TreeWorkload
from repro.sim.machine import run_simulation
from repro.sim.task import TaskStatus
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
        result = run(InterpWorkload(get_program("fib", 9), name="fib"), RollbackRecovery())
        assert result.completed and result.verified is True

    def test_identical_to_noft_makespan(self):
        """Checkpointing must not perturb fault-free scheduling."""
        w = lambda: InterpWorkload(get_program("fib", 9), name="fib")
        r_none = run(w(), NoFaultTolerance())
        r_roll = run(w(), RollbackRecovery())
        assert r_roll.makespan == r_none.makespan
        assert r_roll.metrics.steps_wasted == 0

    def test_checkpoints_recorded_and_dropped(self):
        result = run(TreeWorkload(balanced_tree(3, 2, 10), "bal"), RollbackRecovery())
        m = result.metrics
        assert m.checkpoints_recorded > 0
        # every checkpoint is dropped when its child's result arrives
        assert m.checkpoints_dropped == m.checkpoints_recorded

    def test_peak_checkpoints_bounded_by_tasks(self):
        result = run(TreeWorkload(balanced_tree(4, 2, 10), "bal"), RollbackRecovery())
        assert 0 < result.metrics.checkpoint_peak_held <= result.metrics.tasks_accepted


class TestSingleFault:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_recovers_from_any_processor(self, victim):
        result = run(
            InterpWorkload(get_program("fib", 9), name="fib"),
            RollbackRecovery(),
            faults=FaultSchedule.single(300.0, victim),
        )
        assert result.completed, result.stall_reason
        assert result.verified is True

    @pytest.mark.parametrize("t", [50.0, 200.0, 500.0, 800.0])
    def test_recovers_at_any_time(self, t):
        result = run(
            InterpWorkload(get_program("fib", 9), name="fib"),
            RollbackRecovery(),
            faults=FaultSchedule.single(t, 2),
        )
        assert result.completed and result.verified is True

    def test_fault_after_completion_is_harmless(self):
        w = InterpWorkload(get_program("fib", 6), name="fib")
        base = run(w, RollbackRecovery())
        result = run(
            InterpWorkload(get_program("fib", 6), name="fib"),
            RollbackRecovery(),
            faults=FaultSchedule.single(base.makespan + 1000.0, 1),
        )
        assert result.completed and result.verified is True

    def test_noft_stalls_where_rollback_recovers(self):
        """The control: the same fault defeats the no-recovery policy."""
        spec = balanced_tree(4, 2, 25)
        stalled = run(
            TreeWorkload(spec, "bal"),
            NoFaultTolerance(),
            faults=FaultSchedule.single(150.0, 1),
        )
        recovered = run(
            TreeWorkload(spec, "bal"),
            RollbackRecovery(),
            faults=FaultSchedule.single(150.0, 1),
        )
        assert not stalled.completed and stalled.stall_reason is not None
        assert recovered.completed and recovered.verified is True

    def test_orphans_aborted_and_waste_counted(self):
        result = run(
            TreeWorkload(chain_tree(12, 40), "chain"),
            RollbackRecovery(),
            faults=FaultSchedule.single(200.0, 1),
        )
        assert result.completed and result.verified is True
        assert result.metrics.steps_wasted > 0

    def test_late_fault_costs_more_than_early(self):
        """§6: 'if a fault happens at a later stage of the evaluation, the
        rollback recovery may be costly.'  Cost = completion-time slowdown
        (wasted *steps* can be large for early faults too, because orphan
        subtrees run to completion before aborting)."""
        spec = chain_tree(16, 40)
        base = run(TreeWorkload(spec, "chain"), RollbackRecovery())
        early = run(
            TreeWorkload(spec, "chain"),
            RollbackRecovery(),
            faults=FaultSchedule.single(0.15 * base.makespan, 1),
        )
        late = run(
            TreeWorkload(spec, "chain"),
            RollbackRecovery(),
            faults=FaultSchedule.single(0.85 * base.makespan, 1),
        )
        assert early.completed and late.completed
        assert late.makespan > early.makespan
        assert late.makespan > base.makespan


class TestMultiFault:
    def test_two_faults_different_times(self):
        result = run(
            InterpWorkload(get_program("fib", 9), name="fib"),
            RollbackRecovery(),
            faults=FaultSchedule.of(Fault(200.0, 1), Fault(500.0, 3)),
            n=5,
        )
        assert result.completed and result.verified is True

    def test_simultaneous_faults(self):
        result = run(
            InterpWorkload(get_program("fib", 9), name="fib"),
            RollbackRecovery(),
            faults=FaultSchedule.of(Fault(250.0, 1), Fault(250.0, 2)),
            n=6,
        )
        assert result.completed and result.verified is True

    def test_all_but_one_processor_fails(self):
        result = run(
            TreeWorkload(balanced_tree(3, 2, 20), "bal"),
            RollbackRecovery(),
            faults=FaultSchedule.of(Fault(100.0, 1), Fault(180.0, 2), Fault(260.0, 3)),
        )
        assert result.completed and result.verified is True

    def test_an_undeliverable_result_aborts_its_own_sender(self):
        """§3.2: "a task is also aborted if the result of the task cannot be
        forwarded to the parent task" — that task, never another completed
        instance of its stamp whose result a live parent already consumed."""
        machine = Machine(
            SimConfig(n_processors=4),
            TreeWorkload(balanced_tree(3, 2, 20), "bal"),
            RollbackRecovery(),
            collect_trace=True,
        )
        result = machine.run(
            faults=FaultSchedule.of(Fault(100.0, 1), Fault(180.0, 2), Fault(260.0, 3))
        )
        assert result.completed and result.verified is True
        consumed = {uid for task in machine.instance_registry for uid in task.consumed_uids()}
        orphans = [
            r for r in machine.trace.of_kind("task_aborted")
            if r.extra["reason"] == "orphan-return"
        ]
        assert not consumed & {r.uid for r in orphans}
        assert [r.uid for r in orphans if r.time == 339.0] == [27]


class TestSchedulers:
    @pytest.mark.parametrize("scheduler", ["gradient", "random", "round_robin", "static"])
    def test_recovery_under_every_scheduler(self, scheduler):
        result = run(
            TreeWorkload(balanced_tree(4, 2, 20), "bal"),
            RollbackRecovery(),
            faults=FaultSchedule.single(200.0, 1),
            scheduler=scheduler,
        )
        assert result.completed and result.verified is True


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def one():
            return run(
                TreeWorkload(balanced_tree(4, 2, 15), "bal"),
                RollbackRecovery(),
                faults=FaultSchedule.single(180.0, 2),
                seed=11,
            )

        a, b = one(), one()
        assert a.makespan == b.makespan
        assert a.metrics.tasks_accepted == b.metrics.tasks_accepted
        assert [str(r) for r in a.trace] == [str(r) for r in b.trace]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    victim=st.integers(min_value=0, max_value=3),
    fault_frac=st.floats(min_value=0.05, max_value=1.2),
)
def test_recovery_correctness_property(seed, victim, fault_frac):
    """THE theorem (§4.3): for any single fault at any time on any
    processor, the recovered answer equals the fault-free answer."""
    spec = random_tree(seed=seed, target_tasks=40, max_fanout=3, work_range=(5, 40))
    base = run_simulation(
        TreeWorkload(spec, "rand"),
        SimConfig(n_processors=4, seed=seed),
        policy=RollbackRecovery(),
        collect_trace=False,
    )
    assert base.completed
    result = run_simulation(
        TreeWorkload(spec, "rand"),
        SimConfig(n_processors=4, seed=seed),
        policy=RollbackRecovery(),
        faults=FaultSchedule.single(max(1.0, fault_frac * base.makespan), victim),
        collect_trace=False,
    )
    assert result.completed, result.stall_reason
    assert result.verified is True


class TestReplayEntry:
    """``replay_entry`` — the §3.2 loop — on a hand-built table."""

    DEAD, OTHER = 2, 3

    def build(self):
        from repro.core.packets import SUPER_ROOT_NODE, ReturnAddress, TaskPacket, WorkSpec
        from repro.core.stamps import LevelStamp
        from repro.sim.task import SpawnRecord, SpawnState, TaskInstance

        policy = RollbackRecovery()
        machine = Machine(
            SimConfig(n_processors=4), TreeWorkload(balanced_tree(1, 3, 1), "t"), policy
        )
        node = machine.node(0)
        work = WorkSpec(kind="tree", tree_node=1)
        holder = TaskInstance(
            machine.new_task_uid(),
            TaskPacket(LevelStamp.of(0), work, ReturnAddress(SUPER_ROOT_NODE, 0)), 0, None,
        )
        holder.status = TaskStatus.SUSPENDED
        machine.register_instance(holder)  # node 0's, by its ``node`` field
        table = policy.table_of(node)
        # digit 0: awaited on DEAD; 1: answered, checkpoint stale; 2: awaited on OTHER
        for digit, executor in ((0, self.DEAD), (1, self.DEAD), (2, self.OTHER)):
            stamp = holder.stamp.child(digit)
            record = SpawnRecord(
                digit, stamp, TaskPacket(stamp, work, ReturnAddress(0, holder.uid)),
                state=SpawnState.PLACED, executor=executor, checkpoint_dest=executor,
            )
            holder.add_record(record)
            assert table.record(executor, stamp, record, holder.uid) is record
        holder.spawn_records[1].fulfill(1, by=None)
        # and a checkpoint whose holder instance no longer exists
        orphan = LevelStamp.of(7, 0)
        gone = SpawnRecord(0, orphan, TaskPacket(orphan, work, ReturnAddress(0, 99)))
        assert table.record(self.DEAD, orphan, gone, task_uid=99) is gone
        return policy, machine, node, holder

    def test_reissue_false_discards_the_entry_unused(self):
        policy, machine, node, holder = self.build()
        table = policy.table_of(node)
        assert policy.replay_entry(node, self.DEAD, reason="unused", reissue=False) == []
        assert table.entry(self.DEAD) == [] and len(table.entry(self.OTHER)) == 1
        table.check_invariant()
        awaited, _, elsewhere = (holder.spawn_records[d] for d in (0, 1, 2))
        assert awaited.checkpoint_dest is None and awaited.executor == self.DEAD
        assert elsewhere.checkpoint_dest == self.OTHER
        assert machine.metrics.tasks_reissued == 0 and not awaited.reissued
        assert len(machine.trace) == 0

    def test_by_default_only_the_awaited_checkpoint_is_reissued(self):
        policy, machine, node, holder = self.build()
        awaited = holder.spawn_records[0]
        replayed = policy.replay_entry(node, self.DEAD, reason="why")
        assert replayed == [awaited.child_stamp]
        assert policy.table_of(node).entry(self.DEAD) == []
        assert awaited.reissued and awaited.executor != self.DEAD
        assert machine.metrics.tasks_reissued == 1
        (reissue,) = machine.trace.of_kind("recovery_reissue")
        assert reissue.detail["reason"] == "why"
        # counting is the caller's one-liner, not the loop's
        assert machine.metrics.recoveries_triggered == 0
        policy.recovered(replayed)
        policy.recovered([])
        assert machine.metrics.recoveries_triggered == 1
