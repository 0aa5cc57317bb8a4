"""End-to-end nemesis runs: recovery must survive every built-in adversary.

The invariant under test is the subsystem's reason to exist: with a
recovery policy attached, a nemesis run still terminates with the
sequential oracle's answer (or the divergence is classified in the
result, never silent).  Plus the two determinism contracts: an empty
nemesis is byte-identical to no nemesis at all, and the same seed
reproduces the same chaotic run.
"""

from __future__ import annotations

import pytest

from repro.api import NemesisSpec, PolicySpec, WorkloadSpec
from repro.config import SimConfig
from repro.faults import (
    GrayFailure,
    MessageChaos,
    NemesisSchedule,
    Partition,
    ScheduledCrash,
)
from repro.sim.machine import run_simulation

WORKLOAD = "balanced:4:2:30"


@pytest.fixture(scope="module")
def base():
    wf, _ = WorkloadSpec.parse(WORKLOAD).build()
    result = run_simulation(
        wf(), SimConfig(n_processors=4, seed=0),
        policy=PolicySpec.parse("rollback").build(), collect_trace=False,
    )
    assert result.completed
    return result


def run_nemesis(spec: str, policy: str, base_makespan: float, seed: int = 0,
                collect_trace: bool = False):
    wf, _ = WorkloadSpec.parse(WORKLOAD).build()
    return run_simulation(
        wf(),
        SimConfig(n_processors=4, seed=seed),
        policy=PolicySpec.parse(policy).build(),
        collect_trace=collect_trace,
        nemesis=NemesisSpec.parse(spec).build(base_makespan),
    )


SPECS = [
    "partition:start=0.3,dur=0.25,group=0-1",
    "grayfail:node=1,start=0.2,dur=0.5,factor=4",
    "cascade:at=0.3,node=2,prob=0.4",
    "crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1,reorder=0.2,span=40+jitter:max=25",
    "chaos:dup=0.3,reorder=0.3,span=50",
]


class TestRecoverySurvivesTheAdversaries:
    @pytest.mark.parametrize("policy", ["rollback", "splice"])
    @pytest.mark.parametrize("spec", SPECS)
    def test_run_completes_and_verifies(self, spec, policy, base):
        result = run_nemesis(spec, policy, base.makespan)
        assert result.completed, result.stall_reason
        assert result.verified is True
        assert result.metrics.oracle_mismatch is False

    def test_partition_triggers_symmetric_recovery(self, base):
        result = run_nemesis(SPECS[0], "rollback", base.makespan)
        m = result.metrics
        assert m.nemesis_partition_blocked > 0
        assert m.recoveries_triggered > 0
        # false-positive detections: nodes wrote off live peers
        assert m.failures_detected > 0 and m.failures_injected == 0

    def test_grayfail_slows_without_recovery(self, base):
        result = run_nemesis(SPECS[1], "rollback", base.makespan)
        m = result.metrics
        assert m.nemesis_slowdown_time > 0
        assert result.makespan > base.makespan
        assert m.failures_injected == 0 and m.tasks_reissued == 0

    def test_duplicates_are_suppressed_not_double_counted(self, base):
        result = run_nemesis(SPECS[4], "rollback", base.makespan)
        m = result.metrics
        assert m.nemesis_duplicated > 0
        # every duplicated result arrival lands in the dedup paths, not
        # in a second fulfillment: the task ledger still balances
        assert m.tasks_completed <= m.tasks_accepted
        assert result.verified is True


class TestDeterminism:
    def digest(self, result):
        m = result.metrics
        return (
            result.completed, repr(result.value), result.makespan,
            m.tasks_spawned, m.tasks_accepted, m.tasks_completed,
            m.tasks_aborted, m.tasks_reissued, m.steps_total, m.steps_wasted,
            m.messages_total, m.message_hops, m.nemesis_dropped,
            m.nemesis_duplicated, m.nemesis_delayed,
            m.nemesis_partition_blocked, m.recoveries_triggered,
        )

    def test_empty_nemesis_is_byte_identical_to_none(self):
        wf, _ = WorkloadSpec.parse(WORKLOAD).build()
        plain = run_simulation(
            wf(), SimConfig(n_processors=4, seed=5),
            policy=PolicySpec.parse("splice").build(), collect_trace=True,
        )
        empty = run_simulation(
            wf(), SimConfig(n_processors=4, seed=5),
            policy=PolicySpec.parse("splice").build(), collect_trace=True,
            nemesis=NemesisSchedule.none(),
        )
        assert self.digest(plain) == self.digest(empty)
        assert len(plain.trace) == len(empty.trace)

    @pytest.mark.parametrize("spec", SPECS)
    def test_same_seed_same_chaos(self, spec, base):
        a = run_nemesis(spec, "splice", base.makespan, seed=3)
        b = run_nemesis(spec, "splice", base.makespan, seed=3)
        assert self.digest(a) == self.digest(b)

    def test_different_seed_different_chaos(self, base):
        spec = SPECS[3]
        digests = {
            self.digest(run_nemesis(spec, "splice", base.makespan, seed=s))
            for s in range(3)
        }
        assert len(digests) > 1


class TestPythonApiComposition:
    def test_models_compose_without_the_grammar(self, base):
        wf, _ = WorkloadSpec.parse(WORKLOAD).build()
        schedule = NemesisSchedule.of(
            ScheduledCrash.single(0.4 * base.makespan, 1),
            GrayFailure(2, 0.1 * base.makespan, 0.5 * base.makespan, factor=3.0),
            MessageChaos(duplicate={(0, 1): 1.0}, span=20.0),
        )
        result = run_simulation(
            wf(), SimConfig(n_processors=4, seed=0),
            policy=PolicySpec.parse("splice").build(), collect_trace=False, nemesis=schedule,
        )
        assert result.completed and result.verified is True
        assert result.metrics.nemesis_duplicated > 0
        assert result.metrics.nemesis_slowdown_time > 0

    def test_partition_traffic_resumes_after_heal(self, base):
        wf, _ = WorkloadSpec.parse(WORKLOAD).build()
        schedule = NemesisSchedule.of(
            Partition(0.2 * base.makespan, 0.2 * base.makespan, group=(0,))
        )
        result = run_simulation(
            wf(), SimConfig(n_processors=4, seed=0),
            policy=PolicySpec.parse("splice").build(), collect_trace=True, nemesis=schedule,
        )
        assert result.completed and result.verified is True
        blocked = result.trace.of_kind("nemesis_drop")
        assert blocked and all(
            r.detail["reason"] == "partition" for r in blocked
        )
        heal_time = 0.4 * base.makespan
        cross_after_heal = [
            r for r in result.trace.of_kind("result_received")
            if r.time > heal_time
        ]
        assert cross_after_heal, "no traffic observed after the heal"
