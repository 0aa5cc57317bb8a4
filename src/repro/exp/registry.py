"""Built-in scenario registry: every paper figure and claim as one entry.

Each entry here replaces a hand-rolled driver script: the figure
reproductions (F1-F7) and the quantitative claims (C1-C8) are all
expressed as declarative :class:`~repro.exp.scenario.ScenarioSpec` grids
over the same point runners.  ``repro exp list`` shows this table;
``repro exp run NAME`` executes one; ``tests/test_paper_claims.py`` runs
the same entries and asserts the paper's predicted shapes on the results.

Seeds: ported scenarios pin ``seed`` in ``base`` to match the historical
benchmark outputs; scenarios without an explicit seed (e.g. ``smoke``)
get deterministic per-point seeds derived from the scenario name and
point parameters.
"""

from __future__ import annotations

from repro.exp.scenario import ScenarioSpec, register

# -- paper figures (single-point scenarios) -----------------------------------

_FIGURES = {
    "fig1-fragmentation": (
        "figure1",
        "Figure 1: call-tree fragmentation and checkpoint distribution",
        "The 17-task tree on processors A-D, the failure of B, the three "
        "fragments, the entry[B] checkpoint tables, and the recovery "
        "commands (respawn B1, B2, B3, B7).",
    ),
    "fig2-grandparents": (
        "figure2",
        "Figure 2: grandparent pointers",
        "The resilient structure's only per-task overhead: B3 points at "
        "A's node, D4 at C's node.",
    ),
    "fig3-inheritance": (
        "figure3",
        "Figure 3: twin B2' inherits the orphan D4",
        "Splice recovery on the Figure-1 scenario: D4's completed result "
        "is rerouted to the grandparent and relayed into the twin B2'.",
    ),
    "fig5-cases": (
        "figure5",
        "Figures 4-5: the eight splice-recovery cases",
        "Each driver steers the machine into one ordering of C's "
        "completion vs the recovery events; all must classify and verify.",
    ),
    "fig6-residue": (
        "figure6",
        "Figures 6-7: spawn-state residue analysis",
        "Kills P's processor inside every spawn state window a-g under "
        "both recovery policies; every run must be residue-free.",
    ),
}

for _name, (_fig, _title, _desc) in _FIGURES.items():
    register(
        ScenarioSpec(
            name=_name,
            title=_title,
            description=_desc,
            runner="figure",
            base={"figure": _fig, "seed": 0},
            axes={},
            columns=("figure", "ok"),
        )
    )

# -- quantitative claims ------------------------------------------------------

register(
    ScenarioSpec(
        name="overhead-faultfree",
        title="C1: fault-free overhead by policy",
        description=(
            "§6 claim: functional checkpointing has very little overhead "
            "in normal, fault-free operation. Sweeps every policy over "
            "language and synthetic workloads; compare each makespan to "
            "the policy=none point of the same workload."
        ),
        runner="machine",
        base={"processors": 4, "seed": 0},
        axes={
            "workload": ("fib-10", "prog:tak:7:4:2", "balanced:4:2:40"),
            "policy": ("none", "rollback", "splice", "replicated:3"),
        },
        columns=("makespan", "checkpoints_recorded", "checkpoint_peak_held", "messages_total"),
    )
)

register(
    ScenarioSpec(
        name="rollback-vs-splice",
        title="C2a: recovery cost vs fault time",
        description=(
            "§6 claim: a late fault makes rollback recovery costly while "
            "splice salvages partial results. Fault time is "
            "fault_frac x the policy's own fault-free makespan."
        ),
        runner="machine",
        base={"workload": "balanced:4:2:60", "processors": 4, "seed": 0, "victim": 1},
        axes={
            "policy": ("rollback", "splice"),
            "fault_frac": (0.1, 0.3, 0.5, 0.7, 0.9),
        },
        columns=("makespan", "slowdown", "steps_wasted", "results_salvaged", "tasks_reissued"),
    )
)

register(
    ScenarioSpec(
        name="orphan-regime",
        title="C2b: orphan-dominant regime (slow detector, long leaves)",
        description=(
            "With a slow failure detector and long-running leaves, "
            "orphaned results dominate: splice's salvage cuts the wasted "
            "work and beats rollback's makespan on mid/late faults. The "
            "baseline for fault placement is rollback's fault-free run."
        ),
        runner="machine",
        base={
            "workload": "balanced:2:4:150",
            "processors": 4,
            "seed": 0,
            "victim": 1,
            "base_policy": "rollback",
            "cost": {"detector_delay": 400.0, "detection_timeout": 20.0},
        },
        axes={"policy": ("rollback", "splice"), "fault_frac": (0.3, 0.5, 0.7)},
        columns=("makespan", "steps_wasted", "results_salvaged", "verified"),
    )
)

register(
    ScenarioSpec(
        name="multi-fault",
        title="C3: multiple faults on disjoint branches",
        description=(
            "§5.2 claim: separate recoveries take place at different "
            "parts of the program in parallel — two simultaneous faults "
            "cost near max(single costs), not their sum. Fault times are "
            "fractions of the fault-free makespan."
        ),
        runner="machine",
        base={"workload": "balanced:4:3:40", "processors": 6, "seed": 0, "policy": "splice"},
        axes={"faults": ("", "0.5:1", "0.5:4", "0.5:1+0.5:4", "0.3:1+0.6:4")},
        columns=("makespan", "tasks_reissued", "verified"),
    )
)

register(
    ScenarioSpec(
        name="replication",
        title="C4: replicated tasks with majority voting",
        description=(
            "§5.3: fault-free work scales ~k; a single fault is masked "
            "with no recovery machinery for k>=3 (k=1 stalls). The "
            "fault_free sub-dict carries the unfaulted run's cost."
        ),
        runner="machine",
        base={
            "workload": "balanced:3:2:40",
            "processors": 5,
            "seed": 3,
            "fault_frac": 0.4,
            "victim": 1,
        },
        axes={"policy": ("replicated:1", "replicated:3", "replicated:5")},
        columns=("completed", "verified", "makespan", "tasks_accepted", "messages_total"),
        expect_failures=True,
    )
)

register(
    ScenarioSpec(
        name="periodic-baseline",
        title="C5: periodic global checkpointing vs functional checkpointing",
        description=(
            "§2's comparator: periodic schemes pay synchronization "
            "fault-free (∝ 1/interval) and lost work on failure "
            "(∝ interval); functional checkpointing pays neither."
        ),
        runner="periodic",
        base={
            "depth": 5,
            "fanout": 2,
            "work": 30,
            "processors": 4,
            "fault_frac": 0.6,
            "victim": 1,
            "seed": 0,
        },
        axes={
            "scheme": (
                "periodic:50",
                "periodic:150",
                "periodic:500",
                "periodic:2000",
                "functional:rollback",
                "functional:splice",
            )
        },
        columns=("fault_free_makespan", "sync_time", "faulted_makespan", "lost_work"),
    )
)

register(
    ScenarioSpec(
        name="loadbalance",
        title="C6: load balancing x recovery",
        description=(
            "§3.3: dynamic allocation treats recovery tasks like original "
            "tasks; static placement cannot rebalance after a failure. "
            "Same faulted run under every scheduler; all must verify."
        ),
        runner="machine",
        base={
            "workload": "balanced:4:2:50",
            "processors": 4,
            "seed": 0,
            "policy": "rollback",
            "fault_frac": 0.5,
            "victim": 1,
        },
        axes={"scheduler": ("gradient", "random", "round_robin", "static", "local")},
        columns=("makespan", "slowdown", "utilization_stddev_survivors", "verified"),
    )
)

register(
    ScenarioSpec(
        name="scaling-wide",
        title="C7a: speedup on 48 independent tasks",
        description=(
            "Substrate sanity (Keller & Lin 1984): near-linear speedup on "
            "a wide parallel tree; speedup is vs the 1-processor run."
        ),
        runner="machine",
        base={
            "workload": "wide:48:120",
            "policy": "none",
            "seed": 0,
            "speedup_base_processors": 1,
        },
        axes={"processors": (1, 2, 4, 8)},
        columns=("makespan", "speedup", "utilization_mean"),
    )
)

register(
    ScenarioSpec(
        name="scaling-fib",
        title="C7b: speedup on fib(11)",
        description=(
            "Fine-grained language tasks: communication bounds speedup "
            "below the wide-tree case, but 4 processors must beat 1."
        ),
        runner="machine",
        base={
            "workload": "prog:fib:11",
            "policy": "none",
            "seed": 0,
            "speedup_base_processors": 1,
        },
        axes={"processors": (1, 2, 4, 8)},
        columns=("makespan", "speedup", "utilization_mean"),
    )
)

register(
    ScenarioSpec(
        name="checkpoint-memory",
        title="C8: checkpoint memory vs tree shape",
        description=(
            "§2's 'concise' claim: peak retained checkpoints never exceed "
            "one packet per live task and all are released by run end; "
            "breadth, not depth, drives the peak."
        ),
        runner="machine",
        base={"processors": 4, "seed": 0, "policy": "rollback"},
        axes={
            "workload": (
                "chain:24:20",
                "balanced:3:2:20",
                "balanced:4:2:20",
                "balanced:5:2:20",
                "balanced:3:4:20",
                "wide:40:20",
            )
        },
        columns=("tree_size", "checkpoints_recorded", "checkpoint_peak_held", "checkpoints_dropped"),
    )
)

# -- chaos scenarios (nemesis subsystem, see docs/FAULTS.md) ------------------

register(
    ScenarioSpec(
        name="chaos-partition",
        title="N1: partition-then-heal vs recovery policy",
        description=(
            "A healing network partition (nodes 0-1 vs 2-3): each side "
            "writes the other off and recovers its regions; after the "
            "heal, stale results arrive as duplicates/orphans and must "
            "be suppressed by the §4.1 case machinery. All points must "
            "verify against the oracle. Times are fractions of "
            "rollback's fault-free makespan."
        ),
        runner="machine",
        base={
            "workload": "balanced:4:2:30",
            "processors": 4,
            "seed": 0,
            "base_policy": "rollback",
        },
        axes={
            "policy": ("rollback", "splice"),
            "nemesis": (
                "partition:start=0.3,dur=0.25,group=0-1",
                "partition:start=0.5,dur=0.2,group=0-1",
            ),
        },
        columns=(
            "makespan", "verified", "nemesis_partition_blocked",
            "recoveries_triggered", "results_duplicate", "results_ignored",
        ),
    )
)

register(
    ScenarioSpec(
        name="chaos-grayfail",
        title="N2: gray failure (slow node) compounding a crash",
        description=(
            "Processor 1 runs 4x/8x slow for most of the run while "
            "processor 2 dies mid-run: recovery must proceed on a "
            "degraded machine (the HEAL regime — online recovery under "
            "heterogeneous failure conditions). The empty-nemesis point "
            "is the control."
        ),
        runner="machine",
        base={
            "workload": "balanced:4:2:30",
            "processors": 4,
            "seed": 0,
            "base_policy": "rollback",
        },
        axes={
            "policy": ("rollback", "splice"),
            "nemesis": (
                "",
                "grayfail:node=1,start=0.1,dur=0.6,factor=4+crash:at=0.4,node=2",
                "grayfail:node=1,start=0.1,dur=0.6,factor=8+crash:at=0.4,node=2",
            ),
        },
        columns=(
            "makespan", "verified", "nemesis_slowdown_time",
            "recoveries_triggered", "steps_wasted",
        ),
    )
)

register(
    ScenarioSpec(
        name="chaos-storm",
        title="N3: crash + message chaos + detector jitter",
        description=(
            "The composed adversary: a mid-run crash under silent "
            "message drops (recovered by ack timeouts), duplicated and "
            "reordered deliveries (deduped by stamp), and a jittered "
            "detector. Rollback and splice must both still terminate "
            "with the oracle's answer."
        ),
        runner="machine",
        base={
            "workload": "balanced:4:2:30",
            "processors": 4,
            "seed": 0,
            "base_policy": "rollback",
        },
        axes={
            "policy": ("rollback", "splice"),
            "nemesis": (
                "crash:at=0.35,node=1"
                "+chaos:drop=0.05,dup=0.1,reorder=0.2,span=40"
                "+jitter:max=25",
            ),
        },
        columns=(
            "makespan", "verified", "nemesis_dropped", "nemesis_duplicated",
            "nemesis_delayed", "results_duplicate", "tasks_reissued",
        ),
    )
)

# -- open-loop load scenarios (load subsystem, see docs/LOAD.md) --------------

register(
    ScenarioSpec(
        name="load-steady",
        title="L1: open-loop steady state by arrival process",
        description=(
            "Uncongested open-loop runs: each arrival process injects a "
            "stream of random task trees at the root over a fixed "
            "horizon and the steady-state sojourn/goodput profile is "
            "measured per recovery policy. No inbox caps, no faults — "
            "the latency floor the saturation scenarios are compared "
            "against."
        ),
        runner="machine",
        base={"workload": "balanced:3:2:10", "processors": 8, "seed": 0},
        axes={
            "policy": ("rollback", "splice"),
            "arrivals": (
                "poisson:rate=0.015,horizon=1000,tasks=6",
                "bursty:rate=0.05,on=120,off=280,horizon=1000,tasks=6",
                "diurnal:peak=0.03,horizon=1000,tasks=6",
            ),
        },
        columns=(
            "verified", "makespan", "load.arrivals", "load.sojourn_p50",
            "load.sojourn_p95", "load.goodput", "load.queue_depth_mean",
        ),
    )
)

register(
    ScenarioSpec(
        name="load-saturation",
        title="L2: saturation sweep — arrival rate x overflow policy",
        description=(
            "Bounded inboxes (cap=4) under rising Poisson arrival rates: "
            "drop-with-notify re-routes shed packets after the detection "
            "timeout, tail-drop rides the parent ack timer, and "
            "backpressure defers the sender's slice. The latency "
            "percentiles, goodput, queue depths, and shed counts trace "
            "each policy's congestion knee."
        ),
        runner="machine",
        base={
            "workload": "balanced:3:2:10",
            "processors": 4,
            "seed": 0,
            "policy": "rollback",
        },
        axes={
            "arrivals": (
                "poisson:rate=0.01,horizon=800,tasks=6,cap=4,overflow=drop",
                "poisson:rate=0.02,horizon=800,tasks=6,cap=4,overflow=drop",
                "poisson:rate=0.04,horizon=800,tasks=6,cap=4,overflow=drop",
                "poisson:rate=0.01,horizon=800,tasks=6,cap=4,overflow=tail",
                "poisson:rate=0.02,horizon=800,tasks=6,cap=4,overflow=tail",
                "poisson:rate=0.04,horizon=800,tasks=6,cap=4,overflow=tail",
                "poisson:rate=0.01,horizon=800,tasks=6,cap=4,overflow=backpressure",
                "poisson:rate=0.02,horizon=800,tasks=6,cap=4,overflow=backpressure",
                "poisson:rate=0.04,horizon=800,tasks=6,cap=4,overflow=backpressure",
            ),
        },
        columns=(
            "verified", "load.sojourn_p95", "load.sojourn_p99",
            "load.goodput", "load.queue_depth_mean", "load.dropped",
            "load.backpressure_events",
        ),
    )
)

register(
    ScenarioSpec(
        name="load-chaos",
        title="L3: open-loop arrivals under message chaos",
        description=(
            "Congested open-loop traffic composed with the nemesis: "
            "silent message drops/duplicates and detector jitter while "
            "trees keep arriving at a bounded-inbox machine. Every point "
            "must still verify — congestion shedding and fault recovery "
            "share the reissue machinery and must not confuse each "
            "other. Nemesis params are absolute (no xT fractions: an "
            "open-loop run has no baseline makespan)."
        ),
        runner="machine",
        base={
            "workload": "balanced:3:2:10",
            "processors": 4,
            "seed": 0,
            "policy": "splice",
        },
        axes={
            "arrivals": (
                "poisson:rate=0.03,horizon=800,tasks=6,cap=4,overflow=drop",
                "bursty:rate=0.08,on=150,off=250,horizon=800,tasks=6,cap=4,overflow=backpressure",
            ),
            "nemesis": ("chaos:drop=0.1,dup=0.08", "jitter:max=25"),
        },
        columns=(
            "verified", "load.completed", "load.sojourn_p95",
            "load.dropped", "load.backpressure_events",
            "recoveries_triggered", "results_duplicate",
        ),
    )
)

register(
    ScenarioSpec(
        name="policy-compare-faultfree",
        title="P1: all six policies, fault-free overhead",
        description=(
            "Every registered recovery policy on one fault-free tree: "
            "the bookkeeping each policy charges when nothing fails. "
            "This is the small grid the CI policy-smoke job feeds to "
            "`repro report compare --axis policy` — the stall-prone "
            "policies (`none`, `replicated`) can only join a compare "
            "axis when no nemesis is in play."
        ),
        runner="machine",
        base={"workload": "balanced:4:2:30", "processors": 4, "seed": 0},
        axes={
            "policy": (
                "none", "rollback", "splice", "replicated:3",
                "incremental", "reversible",
            ),
        },
        columns=(
            "makespan", "verified", "checkpoints_recorded",
            "messages_total", "steps_wasted",
        ),
    )
)

register(
    ScenarioSpec(
        name="policy-compare-chaos",
        title="P2: competing policies under partition-heal",
        description=(
            "The paper's recovery policies against the external "
            "competitors (HEAL-style incremental repair, RCP-style "
            "reversible backtracking) on two adversarial regimes: the "
            "N1 partition-heal and a late mid-run crash on a wide tree "
            "— the regime where the repair styles actually diverge "
            "(abort-vs-repair of starved waiters, unwind reissues). "
            "All points must verify. Times are fractions of rollback's "
            "fault-free makespan."
        ),
        runner="machine",
        base={
            "workload": "balanced:4:3:25",
            "processors": 6,
            "seed": 0,
            "base_policy": "rollback",
        },
        axes={
            "policy": (
                "rollback", "splice", "incremental",
                "incremental:persist=hybrid", "reversible",
            ),
            "nemesis": (
                "partition:start=0.3,dur=0.25,group=0-1",
                "crash:at=0.6,node=2",
            ),
        },
        columns=(
            "makespan", "verified", "recoveries_triggered",
            "tasks_reissued", "tasks_aborted", "results_duplicate",
        ),
    )
)

register(
    ScenarioSpec(
        name="policy-compare-load",
        title="P3: competing policies at the saturation knee",
        description=(
            "The competing recovery policies under open-loop Poisson "
            "arrivals at a bounded-inbox machine (cap=4, drop-with-"
            "notify overflow): shed packets re-route through each "
            "policy's reissue machinery, so the policies' repair styles "
            "show up directly in the sojourn percentiles and goodput."
        ),
        runner="machine",
        base={
            "workload": "balanced:3:2:10",
            "processors": 4,
            "seed": 0,
            "arrivals": "poisson:rate=0.02,horizon=800,tasks=6,cap=4,overflow=drop",
        },
        axes={
            "policy": ("rollback", "splice", "incremental", "reversible"),
        },
        columns=(
            "verified", "load.completed", "load.sojourn_p50",
            "load.sojourn_p95", "load.goodput", "load.dropped",
            "tasks_reissued",
        ),
    )
)

register(
    ScenarioSpec(
        name="smoke",
        title="smoke: tiny recovery sweep",
        description=(
            "A fast 2x2 grid (policy x fault time on a 15-task tree) used "
            "by CI, the docs quickstart, and the serial/parallel parity "
            "tests. Has no pinned seed, so it exercises the derived "
            "deterministic per-point seeds."
        ),
        runner="machine",
        base={"workload": "balanced:3:2:10", "processors": 4, "victim": 1},
        axes={"policy": ("rollback", "splice"), "fault_frac": (0.4, 0.8)},
        columns=("makespan", "slowdown", "steps_wasted", "verified"),
    )
)
