"""The four workloads: set-up in ``__init__``, one rep per :meth:`rep` call.

Each workload drives the repo through public functions only and checks
its own outputs; input sizes are constants of the benchmark.  A rep
returns a :class:`Rep` whose ``digest`` covers everything that must
repeat exactly from rep to rep and round to round — no absolute digest
is pinned, so a protocol fix never has to edit the benchmark.

``repro`` is imported inside the methods: the import is part of the
measured set-up, and ``--list`` must work without it.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

from benchlib.spans import Spans

STORM_TREE = "balanced:9:2:20"
STORM_FAULTS = ((0.25, 1), (0.45, 2), (0.65, 3))
STORM_POLICIES = (
    ("storm-rollback", "rollback"),
    ("storm-splice", "splice"),
    ("storm-incremental", "incremental:persist=hybrid"),
    ("storm-reversible", "reversible"),
)
CHAOS_NEMESIS = (
    "crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1,reorder=0.2,span=40+jitter:max=25"
)
OPENLOOP_ARRIVALS = "poisson:rate=0.1,horizon=4000,tasks=10,cap=5,overflow=backpressure"

SWEEP_SCENARIO = "smoke"
SWEEP_REPLICATIONS = 100
N_BOOT = 1000

SEARCH_ROUNDS = 80
#: The search seed is a constant: the work an 80-round coverage search
#: does depends chaotically on its seed (106-262 simulations for seeds
#: 0-7), which no bound of at most 0.25 could absorb.
SEARCH_SEED = 0


@dataclass
class Rep:
    """What one rep produced: records, checks, and boundary counts."""

    #: One record per simulation, in run order (``RunHandle.record`` shape).
    records: List[Dict[str, Any]]
    #: sha256 over every output that must repeat exactly.
    digest: str
    #: Operations attempted: simulations, sweep points, search rounds, verbs.
    attempted: int
    #: One line per operation that failed or broke a consistency check.
    failures: List[str]
    #: Deterministic per-layer counts taken at the public boundaries.
    counts: Dict[str, float] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    from repro.util.jsonio import compact_dumps, sha256_hex

    return sha256_hex(compact_dumps(payload))


def _unverified(records: List[Dict[str, Any]]) -> List[str]:
    return [
        f"simulation {i} ({r['workload']} under {r['policy']}): "
        f"completed={r['completed']} verified={r['verified']}"
        for i, r in enumerate(records)
        if not (r["completed"] and r["verified"] is True)
    ]


def _total(records: List[Dict[str, Any]], key: str) -> int:
    return sum(r["metrics"][key] for r in records)


def sim_stats(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """The two simulated statistics every workload reports end to end."""
    return {
        "sim_useful_ratio": 1.0
        - _total(records, "steps_wasted") / _total(records, "steps_total"),
        "sim_msgs_per_task": _total(records, "messages_total")
        / _total(records, "tasks_completed"),
    }


def record_counts(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer counts readable off the simulation records."""
    loads = [r["load"] for r in records if "load" in r]
    return {
        "sim.network.messages": _total(records, "messages_total"),
        "core.checkpoint.recorded": _total(records, "checkpoints_recorded"),
        "core.checkpoint.peak_held": max(
            r["metrics"]["checkpoint_peak_held"] for r in records
        ),
        "core.recovery.reissued": _total(records, "tasks_reissued"),
        "core.recovery.aborted": _total(records, "tasks_aborted"),
        "core.recovery.useful_ratio": sim_stats(records)["sim_useful_ratio"],
        "faults.nemesis_events": sum(
            _total(records, f"nemesis_{kind}")
            for kind in ("dropped", "duplicated", "delayed", "partition_blocked")
        ),
        "load.arrivals": sum(load["arrivals"] for load in loads),
        "load.backpressure_events": sum(
            load["backpressure_events"] for load in loads
        ),
    }


class Workload:
    """Shared shape; subclasses fill in :meth:`rep`."""

    name = ""

    def rep(self, spans: Spans, workdir: str) -> Rep:
        raise NotImplementedError

    def sim_records(self, rep: Rep, spans: Spans, traced: bool) -> List[Dict[str, Any]]:
        """The simulation records the ``sim_*`` statistics are taken over."""
        return rep.records

    def derived(self, rep: Rep, spans: Spans, span_s: Dict[str, float]) -> Dict[str, float]:
        """Trace-pass extras computed from one rep's spans and counts."""
        return {}


class FaultfreeScale(Workload):
    name = "faultfree-scale"
    TREES = (("balanced:10:2:20", 8), ("balanced:13:2:20", 16))

    def __init__(self, seed: int) -> None:
        from repro.api import Experiment

        self.specs = [
            Experiment.workload(tree).policy("rollback").processors(procs).seed(seed).build()
            for tree, procs in self.TREES
        ]
        self.factories = [spec.workload.build()[0] for spec in self.specs]

    def _run(self, index: int, spans: Spans, collect_trace: bool = False):
        from repro.sim.machine import Machine

        spec = self.specs[index]
        with spans.span("sim.build"):
            machine = Machine(
                spec.config(), self.factories[index](), spec.policy.build(),
                collect_trace=collect_trace,
            )
        with spans.span("sim.run"):
            result = machine.run(verify=True)
        return machine, result

    def rep(self, spans: Spans, workdir: str) -> Rep:
        from repro.api.session import metrics_dict

        records = []
        events = 0
        for index, spec in enumerate(self.specs):
            machine, result = self._run(index, spans)
            events += machine.queue.events_processed
            records.append(
                {
                    "workload": spec.workload.to_spec_str(),
                    "policy": spec.policy.to_spec_str(),
                    "processors": spec.machine.processors,
                    "completed": result.completed,
                    "verified": result.verified,
                    "value": repr(result.value),
                    "makespan": result.makespan,
                    "metrics": metrics_dict(result),
                }
            )
        counts = record_counts(records)
        counts["sim.events.count"] = events
        return Rep(records, _digest(records), len(records), _unverified(records), counts)

    def derived(self, rep: Rep, spans: Spans, span_s: Dict[str, float]) -> Dict[str, float]:
        small, large = (
            r["end"] - r["start"]
            for r in spans.records
            if r["name"] == "sim.run" and r["rep"] == spans.rep
        )
        tasks = [r["metrics"]["tasks_completed"] for r in rep.records]
        # Tracing's price: the small tree traced against untraced, alternating.
        quiet = Spans(enabled=False)
        timings: Dict[bool, List[float]] = {False: [], True: []}
        trace_records = 0
        for _ in range(3):
            for traced in (False, True):
                gc.collect()
                start = time.perf_counter()
                _, result = self._run(0, quiet, collect_trace=traced)
                timings[traced].append(time.perf_counter() - start)
                trace_records = max(trace_records, len(result.trace))
        return {
            "sim.events_per_s": rep.counts["sim.events.count"] / span_s["sim.run"],
            "sim.scale_exponent": math.log(large / small) / math.log(tasks[1] / tasks[0]),
            "sim.trace.overhead_x": statistics.median(timings[True])
            / statistics.median(timings[False]),
            "sim.trace.records": trace_records,
        }


class RecoveryMix(Workload):
    name = "recovery-mix"

    def __init__(self, seed: int) -> None:
        from repro.api import Experiment

        def storm(policy: str):
            builder = Experiment.workload(STORM_TREE).policy(policy).processors(8).seed(seed)
            for frac, node in STORM_FAULTS:
                builder.fault(frac, node)
            return builder.build()

        self.segments = [(name, storm(policy)) for name, policy in STORM_POLICIES]
        # Seed 0 whatever --seed says: which message the chaos drops decides
        # how much of the tree is redone, and that swings this segment's work
        # by a half (95k-150k steps for seeds 1-12).
        self.segments.append(
            (
                "chaos-splice",
                Experiment.workload(STORM_TREE).policy("splice").nemesis(CHAOS_NEMESIS)
                .processors(8).seed(0).build(),
            )
        )
        self.segments.append(
            (
                "openloop",
                Experiment.workload("balanced:3:2:10").policy("rollback")
                .arrivals(OPENLOOP_ARRIVALS).processors(8).seed(seed).build(),
            )
        )

    def rep(self, spans: Spans, workdir: str) -> Rep:
        from repro.api import execute

        records = []
        for name, spec in self.segments:
            with spans.span(f"seg.{name}"):
                records.append(execute(spec).record)
        return Rep(
            records, _digest(records), len(records), _unverified(records),
            record_counts(records),
        )


class SweepSession(Workload):
    """Cold ledgered sweep -> crash -> replay -> resume -> list -> warm -> report -> compare.

    ``--seed`` does not reach this workload: the ``smoke`` scenario pins
    no seed, so every point runs under the registry's derived seed.
    """

    name = "sweep-session"

    def __init__(self, seed: int) -> None:
        from repro.exp import get_scenario, with_replications

        self.spec = with_replications(get_scenario(SWEEP_SCENARIO), SWEEP_REPLICATIONS)

    def rep(self, spans: Spans, workdir: str) -> Rep:
        from repro.exp import list_runs, replay_ledger, resume_run, run_scenario
        from repro.report.driver import run_compare, run_report

        cache = os.path.join(workdir, "cache")
        ledgers = os.path.join(workdir, "ledger")
        reports = os.path.join(workdir, "reports")
        failures: List[str] = []

        with spans.span("exp.cold"):
            cold = run_scenario(self.spec, workers=1, cache_dir=cache, ledger_dir=ledgers)
        records = cold.results()
        failures += _unverified(records)
        with open(cold.cache_path, "rb") as fh:
            cold_bytes = fh.read()

        # The crash: keep the first half of the ledger's records, lose the cache.
        with spans.span("exp.crash"):
            with open(cold.ledger_path, "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
            with open(cold.ledger_path, "wb") as fh:
                fh.writelines(lines[: len(lines) // 2])
            os.remove(cold.cache_path)

        with spans.span("exp.replay"):
            state = replay_ledger(cold.ledger_path)
        todo = state.unfinished()
        if not state.finished or not todo or state.run_finished:
            failures.append(
                f"replay of the half ledger: {len(state.finished)} finished, "
                f"{len(todo)} unfinished, run_finished={state.run_finished}"
            )
        with spans.span("exp.resume"):
            resumed = resume_run(cold.run_id, ledger_dir=ledgers, workers=1, cache_dir=cache)
        with open(resumed.cache_path, "rb") as fh:
            if fh.read() != cold_bytes:
                failures.append("resumed sweep's cache file differs from the cold one")
        if resumed.resumed_points != len(todo):
            failures.append(
                f"resume ran {resumed.resumed_points} points, ledger left {len(todo)}"
            )
        with spans.span("exp.runs"):
            runs = list_runs(ledgers)
        if [run.run_id for run in runs if run.complete] != [cold.run_id]:
            failures.append(
                "list_runs: expected one complete run, got "
                f"{[(run.run_id, run.status) for run in runs]}"
            )
        with spans.span("exp.warm"):
            warm = run_scenario(self.spec, workers=1, cache_dir=cache, ledger_dir=ledgers)
        if not warm.cache_hit:
            failures.append("warm run_scenario missed the cache")
        with spans.span("report.run"):
            report = run_report(
                SWEEP_SCENARIO, replications=SWEEP_REPLICATIONS, workers=1,
                cache_dir=cache, out_dir=reports, n_boot=N_BOOT,
            )
        with spans.span("report.compare"):
            compare = run_compare(
                SWEEP_SCENARIO, axis="policy", replications=SWEEP_REPLICATIONS,
                workers=1, cache_dir=cache, out_dir=reports, n_boot=N_BOOT,
            )
        sweeps = [cold, warm] + report.sweeps + compare.sweeps
        if not all(sweep.cache_hit for sweep in report.sweeps + compare.sweeps):
            failures.append("report/compare re-ran the sweep instead of reading the cache")

        intervals = sum(
            len(cell.metrics) for agg in report.aggregates for cell in agg.cells
        ) + sum(len(cell.deltas) for comp in compare.comparisons for cell in comp.cells)
        with open(resumed.ledger_path, "rb") as fh:
            ledger_bytes = fh.read()
        counts = record_counts(records)
        counts.update(
            {
                "exp.ledger.records": ledger_bytes.count(b"\n"),
                "exp.ledger.bytes": len(ledger_bytes),
                "exp.runner.cache_hit_ratio": sum(s.cache_hit for s in sweeps) / len(sweeps),
                "report.bootstrap.resamples": N_BOOT * intervals,
            }
        )
        verbs = 7  # cold, replay, resume, runs, warm, report, compare
        return Rep(
            records,
            _digest([cold_bytes.decode("utf-8"), report.payload, compare.payload]),
            len(records) + len(todo) + verbs,
            failures,
            counts,
        )

    def derived(self, rep: Rep, spans: Spans, span_s: Dict[str, float]) -> Dict[str, float]:
        return {"exp.points_per_s": len(rep.records) / span_s["exp.cold"]}


class SearchCoverage(Workload):
    """One 80-round coverage search; ``--seed`` does not reach it (SEARCH_SEED)."""

    name = "search-coverage"

    def __init__(self, seed: int) -> None:
        from repro.api import Experiment

        self.base = (
            Experiment.workload("balanced:5:2:10").policy("rollback").processors(4)
            .seed(0).build()
        )
        #: ``attempts`` of the latest search document, for :meth:`sim_records`.
        self.attempts: List[Dict[str, Any]] = []

    def rep(self, spans: Spans, workdir: str) -> Rep:
        from repro.check.search import search

        with spans.span("check.search"):
            result = search(
                self.base, seed=SEARCH_SEED, strategy="coverage",
                rounds=SEARCH_ROUNDS, out_dir=workdir, write=True,
            )
        doc = result.to_doc()
        self.attempts = doc["attempts"]
        failures = []
        if len(self.attempts) != SEARCH_ROUNDS:
            failures.append(f"search evaluated {len(self.attempts)} of {SEARCH_ROUNDS} rounds")
        if not (result.path and os.path.exists(result.path)):
            failures.append("search wrote no ledger document")
        counts = {
            "check.search.simulations": result.simulations,
            "check.search.memo_hit_ratio": sum(a["cached"] for a in self.attempts)
            / len(self.attempts),
            "check.search.novel_ratio": len(result.corpus) / len(self.attempts),
        }
        return Rep([], _digest(doc), SEARCH_ROUNDS + 1, failures, counts)

    def sim_records(self, rep: Rep, spans: Spans, traced: bool) -> List[Dict[str, Any]]:
        """Re-execute the search's recorded schedules, outside any timing.

        The search document carries no per-run step counters, so the
        ``sim_*`` statistics come from running each distinct schedule
        again.  With ``traced`` each one is also taken through context,
        oracles and signature under its own span, and the signature
        must match the one the search recorded.
        """
        from repro.api import NemesisSpec, execute
        from repro.check import (
            CheckConfig,
            build_context,
            evaluate_context,
            signature_from_context,
        )

        config = CheckConfig()
        records = []
        trace_records = 0
        for attempt in self.attempts:
            if attempt["cached"]:
                continue
            spec = replace(self.base, nemesis=NemesisSpec.parse(attempt["nemesis"])).validate()
            with spans.span("check.sim_traced"):
                handle = execute(spec, collect_trace=traced)
            records.append(handle.record)
            if not traced:
                continue
            with spans.span("check.context"):
                ctx = build_context(handle, config)
            with spans.span("check.oracles"):
                report = evaluate_context(ctx, config)
            with spans.span("check.signature"):
                signature = signature_from_context(ctx, report)
            trace_records += len(ctx.records)
            rep.attempted += 1
            if signature.key() != attempt["signature"]:
                rep.failures.append(
                    f"attempt {attempt['index']}: re-evaluated signature differs "
                    "from the one the search recorded"
                )
        rep.counts.update(record_counts(records))
        rep.counts["sim.trace.records"] = trace_records
        return records

    def derived(self, rep: Rep, spans: Spans, span_s: Dict[str, float]) -> Dict[str, float]:
        return {
            "check.sims_per_s": rep.counts["check.search.simulations"]
            / span_s["check.search"]
        }


WORKLOADS = {
    cls.name: cls for cls in (FaultfreeScale, RecoveryMix, SweepSession, SearchCoverage)
}
