#!/usr/bin/env python3
"""Benchmark entry point: ``python3 bench/run.py [--workload W] [--trace 0|1]``.

The parent process never imports ``repro``.  It starts one fresh
interpreter per (workload, round) — never two at once — interleaving the
workloads round-robin so slow machine drift lands on all of them, then
merges what the children report, prints every metric by name with its
unit, writes ``bench/out/result.json`` and exits non-zero if any check
failed.  With ``--workload`` the last line of standard output is the
one-object JSON summary of that workload.

``--trace 0`` is the end-to-end pass (all instrumentation off),
``--trace 1`` the per-layer pass (spans, one rep under cProfile,
kernels); without ``--trace`` both run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)

from benchlib import names  # noqa: E402
from benchlib.spans import Spans, self_seconds_by_name  # noqa: E402
from benchlib.verdict import quartile_spread  # noqa: E402

#: Fresh interpreters per workload in the end-to-end pass; ``--seconds``
#: is split evenly between them.
ROUNDS = 2
#: Extra interpreters per round that only set up: a set-up is 0.3 s and
#: noisy, so its median wants more samples than there are rounds.
SETUP_ONLY_PER_ROUND = 3
CHILD_TIMEOUT_S = 170
RESULT_SCHEMA = "repro-bench/1"


# -- child: one workload in one fresh interpreter ------------------------------


class _Tally:
    """Operations attempted and failed so far in this process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.digest: Optional[str] = None

    def add(self, rep, label: str) -> None:
        self.attempted += rep.attempted + 1  # +1: the digest comparison
        self.failures += [f"{label}: {line}" for line in rep.failures]
        if self.digest is None:
            self.digest = rep.digest
        elif rep.digest != self.digest:
            self.failures.append(f"{label}: outputs differ from the first rep's")


def _one_rep(workload, spans: Spans, scratch: str, index: int, tally: _Tally, profile=None):
    """Run rep ``index``; returns ``(rep, seconds)`` or ``(None, seconds)`` if it raised."""
    workdir = os.path.join(scratch, f"rep{index}")
    spans.rep = index
    gc.collect()
    start = time.perf_counter()
    try:
        with spans.span("rep"):
            if profile is not None:
                profile.enable()
            try:
                rep = workload.rep(spans, workdir)
            finally:
                if profile is not None:
                    profile.disable()
    except Exception:  # noqa: BLE001 - a raising rep is a counted failure, not a crash
        tally.attempted += 1
        tally.failures.append(f"rep {index} raised:\n{traceback.format_exc()}")
        rep = None
    seconds = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    if rep is not None:
        tally.add(rep, f"rep {index}")
    return rep, seconds


def _timed_pass(
    workload, scratch: str, budget_s: float, with_sim_stats: bool, tally: _Tally
) -> Dict[str, Any]:
    from benchlib.workloads import sim_stats

    spans = Spans(enabled=False)
    last, warmup_s = _one_rep(workload, spans, scratch, 0, tally)
    times: List[float] = []
    started = time.perf_counter()
    while last is not None:
        rep, seconds = _one_rep(workload, spans, scratch, len(times) + 1, tally)
        if rep is None:
            break
        last = rep
        times.append(seconds)
        # Stop at the rep boundary nearest the budget.
        if time.perf_counter() - started + seconds / 2 >= budget_s:
            break
    sim = {}
    if last is not None and with_sim_stats:
        sim = sim_stats(workload.sim_records(last, spans, traced=False))
    return {"warmup_s": warmup_s, "rep_times_s": times, "sim": sim}


def _trace_pass(workload, scratch: str, tally: _Tally) -> Dict[str, Any]:
    from benchlib import kernels, layers

    spans = Spans(enabled=True)
    metrics = {name: 0.0 for name, _, _ in names.per_layer()}
    _one_rep(workload, Spans(enabled=False), scratch, 0, tally)  # warm-up
    rep, plain_s = _one_rep(workload, spans, scratch, 1, tally)
    if rep is None:
        return {"metrics": metrics}
    span_s = self_seconds_by_name(spans.records, rep=1)
    metrics.update(workload.derived(rep, spans, span_s))

    profile = cProfile.Profile()
    profiled, profiled_s = _one_rep(workload, spans, scratch, 2, tally, profile)
    if profiled is None:
        return {"metrics": metrics}
    rows = layers.attribute(pstats.Stats(profile).stats, os.path.join(SRC_DIR, "repro"))
    for layer, row in rows.items():
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.calls"] = row["calls"]
    attributed = sum(row["self_s"] for row in rows.values())
    tally.attempted += 1
    # cProfile charges its own per-call hook to no function, so the layers
    # fall short of the wall time by a few percent at ten million calls.
    if abs(attributed - profiled_s) > 0.10 * profiled_s:
        tally.failures.append(
            f"profile: layers sum to {attributed:.3f}s of a {profiled_s:.3f}s profiled rep"
        )
    core = sum(
        row["self_s"] for layer, row in rows.items() if layer.startswith(layers.CORE_PREFIXES)
    )
    metrics["exp.orch_share"] = 1.0 - core / attributed
    metrics["profile.overhead_x"] = profiled_s / plain_s

    spans.rep = 3
    workload.sim_records(rep, spans, traced=True)
    span_s.update(self_seconds_by_name(spans.records, rep=3))
    for name in names.SPANS:
        metrics[f"span.{name}_s"] = span_s.get(name, 0.0)
    metrics.update(rep.counts)
    metrics.update(kernels.run_all(os.path.join(scratch, "kernels")))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"), "w") as fh:
        json.dump({"workload": workload.name, "spans": spans.records}, fh)
    return {"metrics": metrics}


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC_DIR)
    from benchlib.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    scratch = os.path.join(OUT_DIR, "scratch", f"{args.workload}-{os.getpid()}")
    tally = _Tally()
    try:
        if args.trace:
            out = _trace_pass(workload, scratch, tally)
        else:
            out = _timed_pass(workload, scratch, args.seconds, args.sim_stats, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out.update(
        setup_s=setup_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted,
        failures=tally.failures,
        digest=tally.digest,
    )
    print(json.dumps(out))
    return 0


# -- parent: rounds, merging, printing -----------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int, *flags: str) -> Dict[str, Any]:
    """Run one child to completion and return what it reported."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--t0", repr(time.time()),
        *flags,
    ]
    # One hash seed for every child: set and dict layouts, and with them
    # the .calls counts, repeat from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _filesystem_of(path: str) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix wins)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def _merge_timed(rounds: List[Dict[str, Any]], setups: List[float]) -> Dict[str, Any]:
    """Fold one workload's rounds and set-up-only samples into its end-to-end metrics."""
    failures = [line for r in rounds for line in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds) + 1  # +1: rounds agree
    if len({r["digest"] for r in rounds}) != 1:
        failures.append("rounds disagree on their outputs")
    samples = {
        "setup_s": [r["setup_s"] for r in rounds] + setups,
        "rep_s": [t for r in rounds for t in r["rep_times_s"]],
        "peak_rss_mb": [r["rss_mb"] for r in rounds],
    }
    values: Dict[str, float] = {}
    if samples["rep_s"]:  # else a rep raised; the gaps keep the summary line back
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "rep_s": statistics.median(samples["rep_s"]),
            "peak_rss_mb": max(samples["peak_rss_mb"]),
            **rounds[0]["sim"],
        }
    return {
        "attempted": attempted,
        "failures": failures,
        "values": values,
        "samples": samples,
        "warmup_s": [r["warmup_s"] for r in rounds],
        "rep_times_s": [r["rep_times_s"] for r in rounds],
    }


def _print_table(title: str, workload: str, values: Dict[str, float], notes: Dict[str, str]) -> None:
    units = names.units()
    print(f"-- {workload}: {title}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]:<10}{notes.get(name, '')}")


def _summary_line(entry: Dict[str, Any], wanted: List[str]) -> str:
    units = names.units()
    return json.dumps(
        {
            "correct": not entry["failures"],
            "attempted": entry["attempted"],
            "failed": len(entry["failures"]),
            "metrics": {
                name: {"value": entry["values"][name], "unit": units[name]} for name in wanted
            },
        }
    )


def parent_main(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(names.WORKLOAD_NAMES)
    passes = [args.trace] if args.trace is not None else [0, 1]
    os.makedirs(OUT_DIR, exist_ok=True)
    result: Dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": ROUNDS,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "pythonhashseed": "0",
            "scratch_fs": _filesystem_of(OUT_DIR),
            "loadavg_start": os.getloadavg(),
        },
        "end_to_end": {},
        "per_layer": {},
    }

    if 0 in passes:
        rounds: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
        setups: Dict[str, List[float]] = {w: [] for w in workloads}
        for round_index in range(ROUNDS):
            for workload in workloads:
                # The simulated statistics repeat exactly, so one round takes them.
                flags = ["--sim-stats"] if round_index == 0 else []
                rounds[workload].append(
                    _spawn(workload, args.seed, args.seconds / ROUNDS, 0, *flags)
                )
                for _ in range(SETUP_ONLY_PER_ROUND):
                    child = _spawn(workload, args.seed, 0.0, 0, "--setup-only")
                    setups[workload].append(child["setup_s"])
        for workload in workloads:
            entry = result["end_to_end"][workload] = _merge_timed(
                rounds[workload], setups[workload]
            )
            samples = entry["samples"]
            notes = {
                name: f"n={len(samples[name])} iqr/median={quartile_spread(samples[name]):.3f}"
                for name in ("setup_s", "rep_s")
            }
            _print_table("end to end", workload, entry["values"], notes)
    if 1 in passes:
        for workload in workloads:
            child = _spawn(workload, args.seed, 0.0, 1)
            entry = result["per_layer"][workload] = {
                "attempted": child["attempted"],
                "failures": child["failures"],
                "values": child["metrics"],
            }
            _print_table("per layer", workload, entry["values"], {})

    result["env"]["loadavg_end"] = os.getloadavg()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    entries = [e for kind in ("end_to_end", "per_layer") for e in result[kind].values()]
    attempted = sum(e["attempted"] for e in entries)
    failures = [line for e in entries for line in e["failures"]]
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"fail_ratio {len(failures)}/{attempted} failed/attempted; result in {args.out}")
    if args.workload and len(passes) == 1:
        kind, listed = (
            ("per_layer", names.per_layer()) if passes == [1]
            else ("end_to_end", names.END_TO_END)
        )
        entry = result[kind][args.workload]
        wanted = [name for name, _, _ in listed]
        if set(wanted) <= set(entry["values"]):  # a rep that raised leaves gaps
            print(_summary_line(entry, wanted))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names.WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="timed seconds per workload, split over the rounds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both passes")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    parser.add_argument("--list", action="store_true", help="print every metric name and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sim-stats", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.list:
        for name, why in names.WORKLOADS:
            print(f"workload\t{name}\t{why}")
        for name, unit, better in names.END_TO_END:
            print(f"end_to_end\t{name}\t{unit}\t{better}")
        for name, unit, better in names.per_layer():
            print(f"per_layer\t{name}\t{unit}\t{better}")
        return 0
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
