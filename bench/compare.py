#!/usr/bin/env python3
"""Compare two result files: ``python3 bench/compare.py A.json B.json``.

A and B are ``result.json`` files written by ``bench/run.py`` (A the
base, B the candidate).  Prints one row per (end-to-end metric,
workload) — better / within bound / worse / unresolved — using the
bounds in ``BENCHMARK.json``, plus a ``fail_ratio`` row per workload,
and exits non-zero on any "worse".  When both files ran the same seed
the simulated statistics must be exactly equal (bound 0).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from benchlib import names  # noqa: E402
from benchlib.verdict import WORSE, judge  # noqa: E402


def _load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def compare(base: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, float]) -> List[List[str]]:
    """Rows ``[workload, metric, base, new, change, verdict]`` for every shared workload."""
    same_seed = base["seed"] == new["seed"]
    rows: List[List[str]] = []
    for workload in names.WORKLOAD_NAMES:
        a = base["end_to_end"].get(workload)
        b = new["end_to_end"].get(workload)
        if a is None or b is None:
            continue
        for metric, _, better in names.END_TO_END:
            exact = same_seed and metric in names.EXACT
            verdict, change = judge(
                better,
                0.0 if exact else bounds[metric],
                a["values"][metric],
                b["values"][metric],
                a["samples"].get(metric, ()),
                b["samples"].get(metric, ()),
            )
            rows.append(
                [workload, metric, f"{a['values'][metric]:.6g}", f"{b['values'][metric]:.6g}",
                 f"{change:+.2%}", verdict]
            )
        ratios = [len(x["failures"]) / x["attempted"] for x in (a, b)]
        verdict, change = judge("lower", 0.0, ratios[0], ratios[1])
        rows.append(
            [workload, "fail_ratio", f"{ratios[0]:.6g}", f"{ratios[1]:.6g}", f"{change:+.2%}",
             verdict]
        )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    manifest = _load(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    rows = compare(_load(argv[0]), _load(argv[1]), bounds)
    header = ["workload", "metric", "base", "new", "change", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == WORSE for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
