"""Every name the benchmark prints: workloads, metrics, units, direction.

``BENCHMARK.json`` at the repo root carries the same names plus the
bounds; ``bench/tests/test_bench_names.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, why) — order is the round-robin order of a full run.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "faultfree-scale",
        "always-on checkpointing path at 2047 and 16383 tasks; sim.node/events/"
        "loadbalance and core.checkpoint do all the work, recovery/exp/check/report none",
    ),
    (
        "recovery-mix",
        "same sim/core layers the other way: replay, reissue, abort, twins, unwind, "
        "armed nemesis hooks, bounded inboxes, under four policies",
    ),
    (
        "sweep-session",
        "what an exp/report user does (ledgered sweep, crash, resume, report); "
        "simulations are 2 ms each, so the orchestrator is the majority",
    ),
    (
        "search-coverage",
        "the only workload with tracing on: sim.trace, check.oracles, check.coverage, "
        "core.stamps and faults.generate carry weight",
    ),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)

#: (name, unit, better) of the end-to-end metrics; bounds live in BENCHMARK.json.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("rep_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_useful_ratio", "ratio", "higher"),
    ("sim_msgs_per_task", "msgs/task", "lower"),
)

#: End-to-end metrics that are simulated statistics: for one seed they
#: repeat exactly, so ``compare.py`` demands equality when seeds match.
EXACT: Tuple[str, ...] = ("sim_useful_ratio", "sim_msgs_per_task")

#: Profile-attribution layers (module paths under ``src/repro/``).
LAYERS: Tuple[str, ...] = (
    "sim.events", "sim.network", "sim.node", "sim.machine", "sim.loadbalance",
    "sim.trace", "sim.failure", "sim.task",
    "core.checkpoint", "core.stamps", "core.rollback", "core.splice", "core.policy",
    "policies", "faults", "load", "workloads",
    "api.specs", "api.session",
    "exp.scenario", "exp.runner", "exp.ledger",
    "check.oracles", "check.coverage", "check.search",
    "report", "util.jsonio", "util.rng", "util.stats", "other",
)

#: Spans the benchmark records around each public call (self seconds).
SPANS: Tuple[str, ...] = (
    "sim.build", "sim.run",
    "seg.storm-rollback", "seg.storm-splice", "seg.storm-incremental",
    "seg.storm-reversible", "seg.chaos-splice", "seg.openloop",
    "exp.cold", "exp.replay", "exp.resume", "exp.runs", "exp.warm",
    "report.run", "report.compare",
    "check.search", "check.sim_traced", "check.context", "check.oracles",
    "check.signature",
)

#: Kernels timed from outside: (name, unit).
KERNELS: Tuple[Tuple[str, str], ...] = (
    ("sim.events.ops_per_s", "1/s"),
    ("sim.network.msgs_per_s", "1/s"),
    ("core.checkpoint.records_per_s", "1/s"),
    ("core.stamps.ops_per_s", "1/s"),
    ("faults.partition.probes_per_s", "1/s"),
    ("faults.generate.mutations_per_s", "1/s"),
    ("load.arrivals_per_s", "1/s"),
    ("api.specs.parse_per_s", "1/s"),
    ("api.specs.json_roundtrip_per_s", "1/s"),
    ("exp.scenario.expand_per_s", "1/s"),
    ("exp.ledger.append_per_s", "1/s"),
    ("exp.ledger.replay_per_s", "1/s"),
    ("util.jsonio.dumps_mb_per_s", "MB/s"),
    ("report.aggregate.cells_per_s", "1/s"),
    ("check.oracles.records_per_s", "1/s"),
    ("check.coverage.sigs_per_s", "1/s"),
)

#: Deterministic counts taken at the same boundaries: (name, unit, better).
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events.count", "count", "lower"),
    ("sim.network.messages", "count", "lower"),
    ("sim.trace.records", "count", "lower"),
    ("core.checkpoint.recorded", "count", "lower"),
    ("core.checkpoint.peak_held", "count", "lower"),
    ("core.recovery.reissued", "count", "lower"),
    ("core.recovery.aborted", "count", "lower"),
    ("core.recovery.useful_ratio", "ratio", "higher"),
    ("faults.nemesis_events", "count", "lower"),
    ("load.arrivals", "count", "higher"),
    ("load.backpressure_events", "count", "lower"),
    ("exp.ledger.records", "count", "lower"),
    ("exp.ledger.bytes", "bytes", "lower"),
    ("exp.runner.cache_hit_ratio", "ratio", "higher"),
    ("check.search.simulations", "count", "lower"),
    ("check.search.memo_hit_ratio", "ratio", "higher"),
    ("check.search.novel_ratio", "ratio", "higher"),
    ("report.bootstrap.resamples", "count", "lower"),
)

#: Derived from the above: (name, unit, better).
DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("profile.overhead_x", "x", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.scale_exponent", "exponent", "lower"),
    ("sim.trace.overhead_x", "x", "lower"),
    ("exp.points_per_s", "1/s", "higher"),
    ("exp.orch_share", "ratio", "lower"),
    ("check.sims_per_s", "1/s", "higher"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out += [(f"span.{name}_s", "s", "lower") for name in SPANS]
    out += [(name, unit, "higher") for name, unit in KERNELS]
    out += list(COUNTS)
    out += list(DERIVED)
    return out


def units() -> Dict[str, str]:
    """Unit of every metric name, end-to-end and per-layer."""
    table = {name: unit for name, unit, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer()})
    return table
