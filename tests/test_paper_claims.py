"""The paper's claims [C1]-[C8] and figures [F1]-[F7] as tier-1 assertions.

Every test regenerates one paper artifact through its scenario-registry
entry (``run_scenario(name)``: one run, no cache directory), prints the
table or figure text the artifact reports (visible with ``-s`` and in
the captured output block on failure), and asserts the *shape* the paper
predicts — who wins, which way a cost moves — so a broken claim fails
``pytest -x -q``.  ``docs/SCENARIOS.md`` maps each tag to its scenario.
"""

from __future__ import annotations

from repro.analysis.residue import STATES
from repro.exp import get_scenario, run_scenario, sweep_table


def emit(title: str, body: str) -> None:
    """Print a labelled artifact block."""
    print()
    print(f"────── {title} ──────")
    print(body)


def test_fault_free_overhead():
    """[C1] §6 claim: functional checkpointing has "very little overhead
    while the system is in a normal, fault-free operation".

    Fault-free makespan of every policy relative to no fault tolerance
    across language and synthetic workloads.  Expected shape:
    rollback/splice within a few percent of none (they add packets +
    table upkeep off the critical path); replication pays ~k×."""
    sweep = run_scenario("overhead-faultfree")
    emit("C1: fault-free overhead by policy", sweep_table(sweep))
    by = sweep.by_axes("workload", "policy")
    for workload in get_scenario("overhead-faultfree").axes["workload"]:
        base = by[(workload, "none")]["makespan"]
        for policy in ("rollback", "splice"):
            row = by[(workload, policy)]
            # functional checkpointing must stay within 5% of no-FT
            assert row["makespan"] / base <= 1.05, (workload, policy)
            assert row["metrics"]["checkpoints_recorded"] > 0
        # replication's price: meaningfully more expensive fault-free
        assert by[(workload, "replicated:3")]["makespan"] / base > 1.05, workload


def test_fault_time_sweep():
    """[C2] §6 claim: "if a fault happens at a later stage of the
    evaluation, the rollback recovery may be costly"; splice salvages
    partial results.

    ``rollback-vs-splice`` — fault-time sweep on a balanced tree (both
    policies recover, slowdown grows with fault time for rollback)."""
    sweep = run_scenario("rollback-vs-splice")
    emit("C2a: recovery cost vs fault time", sweep_table(sweep))
    results = sweep.results()
    assert all(r["completed"] and r["correct"] for r in results)
    rollback = [r for r in results if r["policy"] == "rollback"]
    splice = [r for r in results if r["policy"] == "splice"]
    # late faults slow rollback more than early ones (the §6 claim)
    assert max(r["slowdown"] for r in rollback) > min(r["slowdown"] for r in rollback)
    # splice salvages on mid/late faults
    assert any(r["metrics"]["results_salvaged"] > 0 for r in splice)


def test_orphan_dominant_regime():
    """[C2] ``orphan-regime`` — slow detector + long leaves, where
    splice's salvage halves the wasted work and beats rollback's
    makespan."""
    sweep = run_scenario("orphan-regime")
    emit("C2b: orphan-dominant regime (slow detector, long leaves)", sweep_table(sweep))
    by = sweep.by_axes("policy", "fault_frac")
    for frac in (0.3, 0.5, 0.7):
        r_roll = by[("rollback", frac)]
        r_splice = by[("splice", frac)]
        assert r_roll["verified"] is True and r_splice["verified"] is True
        if frac >= 0.5:
            assert r_splice["metrics"]["steps_wasted"] < r_roll["metrics"]["steps_wasted"]
            assert r_splice["makespan"] <= r_roll["makespan"]
            assert r_splice["metrics"]["results_salvaged"] > 0


def test_multi_fault_parallel_recovery():
    """[C3] §5.2 claim: "multiple failures on different branches of a
    structure do not disturb the recovery algorithm at all.  Separate
    recoveries take place at different parts of the program in parallel."

    One fault vs two simultaneous faults on disjoint branches — the
    two-fault recovery cost should be near max(single costs), not their
    sum; and sequential fault chains must still verify."""
    sweep = run_scenario("multi-fault")
    emit("C3: multiple faults on disjoint branches", sweep_table(sweep))
    by = sweep.by_axes("faults")
    one_a, one_b = by["0.5:1"], by["0.5:4"]
    both, seq = by["0.5:1+0.5:4"], by["0.3:1+0.6:4"]
    for r in (one_a, one_b, both, seq):
        assert r["completed"] and r["verified"] is True
    # Parallel recovery: healing both faults in one run costs decisively
    # less than the two single-fault recovery runs end-to-end (the
    # recoveries overlap; some extra cost remains because two dead
    # processors also shrink compute capacity).
    assert both["makespan"] < one_a["makespan"] + one_b["makespan"]
    assert both["makespan"] < 1.5 * max(one_a["makespan"], one_b["makespan"])


def test_replication_scaling_and_masking():
    """[C4] §5.3: replicated tasks with majority voting.

    Expected shape: fault-free work scales ~k; a single fault is masked
    with no recovery machinery for k>=3 (k=1 stalls); the vote never
    waits for the slowest (dead) replica.  Each point's ``fault_free``
    sub-dict carries the unfaulted run's cost, the top-level fields the
    faulted run's outcome."""
    sweep = run_scenario("replication")
    emit("C4: replication factor sweep", sweep_table(sweep))
    by = sweep.by_axes("policy")
    ff1 = by["replicated:1"]["fault_free"]
    ff3 = by["replicated:3"]["fault_free"]
    ff5 = by["replicated:5"]["fault_free"]
    # cost scales ~k in task executions
    assert ff3["tasks_accepted"] >= 2.5 * ff1["tasks_accepted"]
    assert ff5["tasks_accepted"] >= 4.0 * ff1["tasks_accepted"]
    # masking: k=1 stalls, k>=3 completes with the oracle answer
    assert not by["replicated:1"]["completed"]
    assert by["replicated:3"]["completed"] and by["replicated:3"]["verified"] is True
    assert by["replicated:5"]["completed"] and by["replicated:5"]["verified"] is True


def test_periodic_vs_functional():
    """[C5] §2's comparator: periodic global checkpointing.

    The paper argues functional checkpointing avoids both of the
    periodic scheme's costs: global synchronization fault-free
    (∝ 1/interval) and lost work on failure (∝ interval).  The scenario
    sweeps the checkpoint interval and compares against functional
    checkpointing on the same tree and cost model."""
    sweep = run_scenario("periodic-baseline")
    emit("C5: periodic global checkpointing vs functional checkpointing", sweep_table(sweep))
    by = sweep.by_axes("scheme")
    # fault-free synchronization cost grows as the interval tightens
    assert by["periodic:50"]["sync_time"] > by["periodic:2000"]["sync_time"]
    assert by["periodic:50"]["fault_free_makespan"] > by["periodic:2000"]["fault_free_makespan"]
    # lost work on failure grows as the interval loosens
    assert by["periodic:2000"]["lost_work"] > by["periodic:50"]["lost_work"]
    # functional checkpointing pays no synchronization at all, and both
    # policies recover correctly
    for scheme in ("functional:rollback", "functional:splice"):
        assert by[scheme]["sync_time"] == 0.0
        assert by[scheme]["completed"] and by[scheme]["verified"] is True


def test_schedulers_under_recovery():
    """[C6] §3.3: recovery under dynamic vs static allocation.

        "Dynamic allocation does not distinguish between tasks generated
        for recovery and original tasks. [...] the balanced state derived
        from the static allocation method may not be maintained easily
        after a processor fails."

    The same faulted run under every scheduler — all must stay correct;
    the table reports post-recovery utilization imbalance among
    survivors."""
    sweep = run_scenario("loadbalance")
    emit("C6: load balancing x recovery", sweep_table(sweep))
    by = sweep.by_axes("scheduler")
    for scheduler, r in by.items():
        assert r["completed"], scheduler
        assert r["verified"] is True, scheduler
    # dynamic placement (gradient) beats no distribution (local) outright
    assert by["gradient"]["makespan"] < by["local"]["makespan"]


def test_scaling_wide_tree():
    """[C7] Substrate sanity: Rediflow-style speedup scaling.

    The companion paper (Keller & Lin 1984) reported near-linear
    speedups on parallel reduction workloads; the protocols under study
    assume a substrate where adding processors helps."""
    sweep = run_scenario("scaling-wide")
    emit("C7a: speedup on 48 independent tasks", sweep_table(sweep))
    by = sweep.by_axes("processors")
    assert by[4]["speedup"] > 2.5
    assert by[8]["speedup"] > by[4]["speedup"]


def test_scaling_fib():
    """[C7] Speedup on the fine-grained ``scaling-fib`` entry."""
    sweep = run_scenario("scaling-fib")
    emit("C7b: speedup on fib(11)", sweep_table(sweep))
    by = sweep.by_axes("processors")
    # fib tasks are fine-grained: communication bounds speedup below the
    # wide-tree case, but 4 processors must still beat 1 clearly
    assert by[4]["speedup"] > 1.5


def test_checkpoint_memory_ablation():
    """[C8] Ablation: checkpoint memory vs tree shape (§2's "concise").

    A functional checkpoint is one retained task packet; the table holds
    only *topmost* stamps per destination.  This ablation measures peak
    retained checkpoints against tree depth and fanout — the quantity
    that replaces the periodic scheme's whole-system snapshots — and
    verifies that all recovery state is released by run end."""
    sweep = run_scenario("checkpoint-memory")
    emit("C8: checkpoint memory vs tree shape", sweep_table(sweep))
    for r in sweep.results():
        m = r["metrics"]
        # the recovery state never exceeds one packet per live task, and
        # all of it is released by the end of the run
        assert m["checkpoint_peak_held"] <= r["tree_size"] + 1, r["workload"]
        assert m["checkpoints_dropped"] == m["checkpoints_recorded"], r["workload"]
    by = sweep.by_axes("workload")
    # breadth, not depth, drives the peak: a wide tree holds more
    # checkpoints simultaneously than a chain of comparable size
    chain_peak = by["chain:24:20"]["metrics"]["checkpoint_peak_held"]
    wide_peak = by["wide:40:20"]["metrics"]["checkpoint_peak_held"]
    assert wide_peak > chain_peak


def test_fig1_fragmentation():
    """[F1] Figure 1: call-tree fragmentation and checkpoint distribution.

    The 17-task tree on processors A-D, the failure of B, the three
    fragments, the entry[B] checkpoint tables, and the recovery commands
    (respawn B1, B2, B3, B7).  The figure's own ``ok`` flag checks
    fragments, checkpoint distribution, and reissues against the paper;
    the detailed structural assertions live in
    ``tests/analysis/test_figures.py``."""
    sweep = run_scenario("fig1-fragmentation")
    (report,) = sweep.results()
    emit("Figure 1 (fragmentation + checkpoints)", report["text"])
    assert report["ok"]
    assert "entry[B]" in report["text"]
    for task in ("B1", "B2", "B3", "B7"):
        assert task in report["text"]


def test_fig2_grandparent_pointers():
    """[F2] Figure 2: grandparent pointers.

    The resilient structure's only per-task overhead is the grandparent
    node id ("which may be just an integer", §4.2); the figure's ``ok``
    flag checks the two pointers the paper draws: B3 -> A's node,
    D4 -> C's node."""
    sweep = run_scenario("fig2-grandparents")
    (report,) = sweep.results()
    emit("Figure 2 (grandparent pointers)", report["text"])
    assert report["ok"]
    assert "B3" in report["text"] and "D4" in report["text"]


def test_fig3_twin_inheritance():
    """[F3] Figure 3: twin B2' inherits the orphan D4.

    Splice recovery on the Figure-1 scenario, where D4's completed
    result is rerouted to grandparent C1's node and relayed into the
    twin B2', while A2's stranded fragment is recomputed (the B5 story).
    The figure's ``ok`` flag requires the twin, the salvage, the
    reroute, and the oracle answer."""
    sweep = run_scenario("fig3-inheritance")
    (report,) = sweep.results()
    emit("Figure 3 (splice inheritance)", report["text"])
    assert report["ok"]
    assert "B2" in report["text"] and "D4" in report["text"]


def test_fig5_all_cases():
    """[F4/F5] Figures 4-5: the eight orderings of C vs the recovery events.

    Each driver steers the machine into one ordering; the figure's
    ``ok`` flag requires every classification to match and every run to
    produce the oracle answer — §4.1's case analysis as an executable
    table."""
    sweep = run_scenario("fig5-cases")
    (report,) = sweep.results()
    emit("Figures 4-5 (eight splice cases)", report["text"])
    assert report["ok"]
    # one table row per ordering (cases 1-8), each starting "| N | ..."
    for case in range(1, 9):
        assert f"\n| {case} " in report["text"]


def test_fig6_residue_sweep():
    """[F6/F7] Figures 6-7: residue-freedom across the spawn state machine.

    Kills P's processor inside every state window a-g under both
    recovery policies; the figure's ``ok`` flag requires every run to
    complete with the oracle answer (no residue).  The rollback-aborts
    vs splice-salvages split for states d/e is asserted in
    ``tests/analysis/test_figures.py``."""
    sweep = run_scenario("fig6-residue")
    (report,) = sweep.results()
    emit("Figures 6-7 (spawn-state residue sweep)", report["text"])
    assert report["ok"]
    for state in STATES:
        assert f"\n| {state} " in report["text"]
