"""``run_simulation`` dismantles the machine it owns; ``Machine.run`` does not.

A finished machine used to be one reference cycle that also held the
result's trace, so every dropped run waited for a collector pass (2 850
objects per traced ``balanced:5``, eleven full collections per
``search-coverage`` rep).  With the collector off, dropping a handle
must now leave (next to) nothing behind, whatever the tree size.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import Experiment
from repro.api.session import execute
from repro.core.rollback import RollbackRecovery
from repro.sim.failure import Fault, FaultSchedule
from repro.sim.machine import Machine, run_simulation

#: The six registered policies (``none`` cannot survive a crash), then
#: the two hook families that bind themselves to the machine.
CASES = [
    ("none", {}),
    ("rollback", {"fault": True}),
    ("splice", {"fault": True}),
    ("incremental:persist=hybrid", {"fault": True}),
    ("reversible", {"fault": True}),
    ("replicated:3", {"fault": True}),
    ("splice", {"fault": True, "nemesis": "chaos:drop=0.05,dup=0.05+jitter:max=20"}),
    ("rollback", {"arrivals": "poisson:rate=0.03,horizon=300,cap=3,overflow=drop"}),
]


def build_spec(workload: str, policy: str, fault=False, nemesis=None, arrivals=None):
    exp = Experiment.workload(workload).policy(policy).processors(4)
    if fault:
        exp = exp.fault(0.4, 1)
    if nemesis:
        exp = exp.nemesis(nemesis)
    if arrivals:
        exp = exp.arrivals(arrivals)
    return exp.build()


def stranded_by_one_run(spec) -> int:
    """Objects only a collector pass can free after a traced run is dropped."""
    execute(spec, collect_trace=True)  # fills the baseline-makespan memo
    gc.collect()
    gc.disable()
    try:
        handle = execute(spec, collect_trace=True)
        assert handle.completed and handle.verified
        assert len(handle.result.trace.records) > 50
        del handle
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("policy, shape", CASES, ids=[f"{p}-{'-'.join(s)}" for p, s in CASES])
def test_a_dropped_run_is_freed_without_the_collector(policy, shape):
    small = stranded_by_one_run(build_spec("balanced:3:2:10", policy, **shape))
    large = stranded_by_one_run(build_spec("balanced:7:2:10", policy, **shape))
    assert small < 50
    assert large <= small


def test_a_stalled_run_is_freed_too():
    spec = build_spec("balanced:5:2:10", "none", fault=True)
    gc.collect()
    gc.disable()
    try:
        handle = execute(spec, collect_trace=True)
        assert not handle.completed
        del handle
        assert gc.collect() < 50
    finally:
        gc.enable()


def test_run_simulation_detaches_what_the_caller_passed_in():
    spec = build_spec("balanced:3:2:10", "rollback")
    policy = RollbackRecovery()
    result = run_simulation(spec.workload.build()[0](), spec.config(), policy=policy)
    assert result.completed and result.verified
    assert policy.machine is None
    assert len(result.trace.records) > 50 and result.metrics.tasks_accepted == 15


def test_a_directly_built_machine_stays_inspectable_after_run():
    spec = build_spec("balanced:4:2:10", "rollback")
    machine = Machine(spec.config(), spec.workload.build()[0](), spec.policy.build())
    result = machine.run(faults=FaultSchedule.of(Fault(60.0, 1)))
    assert result.completed and result.verified
    assert len(machine.nodes) == 5 and not machine.node(1).alive
    assert machine.queue.events_processed > 0
    assert len(machine.instance_registry) >= result.metrics.tasks_completed
    assert all(node.machine is machine for node in machine.all_nodes())
    assert machine.policy.machine is machine and machine.network.machine is machine
    # the registry is every node's instances: each one names a node of the machine
    assert {t.node for t in machine.instance_registry} <= set(machine.nodes)
    for node in machine.all_nodes():
        node.ft_state.table.check_invariant()


def test_a_machine_dismantled_mid_run_frees_what_its_tables_hold():
    """Mid-run, every table holds spawn records themselves, and the
    pending ack timeout of a record still awaiting its acknowledgement
    holds the record and its node (machine -> queue -> timeout -> node ->
    machine): ``dismantle`` must leave none of it to the collector."""
    spec = build_spec("balanced:7:2:10", "rollback")
    gc.collect()
    gc.disable()
    try:
        machine = Machine(spec.config(), spec.workload.build()[0](), spec.policy.build())
        machine._start_root_host()
        machine.queue.run(until=lambda: machine.metrics.tasks_accepted >= 100, max_events=50_000)
        assert machine.policy.held_total.held > 0
        assert any(
            record.ack_timer is not None
            for task in machine.instance_registry
            for record in task.spawn_records
        )
        machine.dismantle()
        del machine
        assert gc.collect() < 50
    finally:
        gc.enable()
