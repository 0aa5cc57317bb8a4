"""End-to-end report drivers: sweep (cached) → aggregate → emit to disk.

``run_report`` and ``run_compare`` are what the ``repro report`` CLI
verbs call: they resolve the scenario (optionally overriding its
replication count), run or reuse the sweep through the existing
``exp/runner.py`` pool and result cache, aggregate, and write the
Markdown + JSON pair under ``results/reports/``:

```
results/
  <scenario>/<spec-key>.json          the sweep result cache (exp/)
  reports/
    <scenario>.md / .json             repro report run
    <scenario>-by-<axis>.md / .json   repro report compare --axis
    <a>-vs-<b>.md / .json             repro report compare A B
```

File names are deterministic (no timestamps); reruns overwrite
atomically.  ``out_dir=None`` skips writing and just returns the
rendered artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exp.runner import SweepResult, run_scenario
from repro.exp.scenario import ScenarioSpec, get_scenario, with_replications
from repro.report.aggregate import SweepAggregate, aggregate_sweep
from repro.report.compare import Comparison, compare_aggregates, split_compare
from repro.report.emit import (
    compare_payload,
    markdown_compare,
    markdown_report,
    report_payload,
)
from repro.config import RESULTS_DIR
from repro.errors import SpecError
from repro.util.jsonio import emit_json, write_atomic
from repro.util.stats import DEFAULT_LEVEL, DEFAULT_N_BOOT, check_interval_params

#: Where reports land by default, next to the sweep cache.
DEFAULT_OUT_DIR = os.path.join(RESULTS_DIR, "reports")


@dataclass
class ReportResult:
    """One emitted report: payload + markdown + where they were written."""

    name: str
    payload: Dict[str, Any]
    markdown: str
    markdown_path: Optional[str] = None
    json_path: Optional[str] = None
    sweeps: List[SweepResult] = field(default_factory=list)
    aggregates: List[SweepAggregate] = field(default_factory=list)
    comparisons: List[Comparison] = field(default_factory=list)


def _resolved_spec(scenario: str, replications: Optional[int]) -> ScenarioSpec:
    spec = get_scenario(scenario)
    if replications is not None:
        spec = with_replications(spec, replications)
    return spec


def _sweep_and_aggregate(
    spec: ScenarioSpec,
    workers: int,
    cache_dir: Optional[str],
    force: bool,
    level: float,
    n_boot: int,
):
    sweep = run_scenario(spec, workers=workers, cache_dir=cache_dir, force=force)
    return sweep, aggregate_sweep(sweep, spec, level=level, n_boot=n_boot)


def _emit(
    name: str,
    payload: Dict[str, Any],
    markdown: str,
    out_dir: Optional[str],
    sweeps: List[SweepResult],
    aggregates: List[SweepAggregate],
    comparisons: List[Comparison],
) -> ReportResult:
    markdown_path = json_path = None
    if out_dir is not None:
        markdown_path = os.path.join(out_dir, f"{name}.md")
        json_path = os.path.join(out_dir, f"{name}.json")
        write_atomic(markdown_path, markdown)
        emit_json(payload, path=json_path)
    return ReportResult(
        name=name,
        payload=payload,
        markdown=markdown,
        markdown_path=markdown_path,
        json_path=json_path,
        sweeps=sweeps,
        aggregates=aggregates,
        comparisons=comparisons,
    )


def run_report(
    scenario: str,
    replications: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = RESULTS_DIR,
    out_dir: Optional[str] = DEFAULT_OUT_DIR,
    force: bool = False,
    level: float = DEFAULT_LEVEL,
    n_boot: int = DEFAULT_N_BOOT,
) -> ReportResult:
    """Aggregate one scenario's (replicated) sweep into a report pair.

    ``replications`` overrides the registered spec's count (``None``
    keeps it); the sweep itself is served from — or written to — the
    standard result cache, so a report over an already-swept scenario
    costs no simulation time.
    """
    check_interval_params(level, n_boot)
    spec = _resolved_spec(scenario, replications)
    sweep, aggregate = _sweep_and_aggregate(
        spec, workers, cache_dir, force, level, n_boot
    )
    return _emit(
        spec.name,
        report_payload(aggregate),
        markdown_report(aggregate, description=spec.description),
        out_dir,
        sweeps=[sweep],
        aggregates=[aggregate],
        comparisons=[],
    )


def run_compare(
    scenario: str,
    other: Optional[str] = None,
    axis: Optional[str] = None,
    baseline: Optional[Any] = None,
    replications: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = RESULTS_DIR,
    out_dir: Optional[str] = DEFAULT_OUT_DIR,
    force: bool = False,
    level: float = DEFAULT_LEVEL,
    n_boot: int = DEFAULT_N_BOOT,
) -> ReportResult:
    """Compare two scenarios, or two values of one axis, with delta CIs.

    Give ``other`` for a cross-scenario comparison (cells joined on the
    shared axes) or ``axis`` for a within-scenario split (``baseline``
    picks the reference value; default is the axis's first value).
    Exactly one of the two forms must be chosen.
    """
    if (other is None) == (axis is None):
        raise SpecError(
            "report compare takes either a second scenario or --axis "
            "(exactly one)",
            field="report.compare", value={"other": other, "axis": axis},
        )
    check_interval_params(level, n_boot)
    spec = _resolved_spec(scenario, replications)
    sweep, aggregate = _sweep_and_aggregate(
        spec, workers, cache_dir, force, level, n_boot
    )
    if other is not None:
        other_spec = _resolved_spec(other, replications)
        other_sweep, other_aggregate = _sweep_and_aggregate(
            other_spec, workers, cache_dir, force, level, n_boot
        )
        comparisons = [compare_aggregates(aggregate, other_aggregate)]
        name = f"{spec.name}-vs-{other_spec.name}"
        description = (
            f"`{spec.name}`: {spec.description}\n\n"
            f"`{other_spec.name}`: {other_spec.description}"
        )
        sweeps = [sweep, other_sweep]
        aggregates = [aggregate, other_aggregate]
    else:
        comparisons = split_compare(aggregate, axis, baseline=baseline)
        name = f"{spec.name}-by-{axis}"
        description = spec.description
        sweeps = [sweep]
        aggregates = [aggregate]
    return _emit(
        name, compare_payload(comparisons),
        markdown_compare(comparisons, description=description), out_dir,
        sweeps=sweeps, aggregates=aggregates, comparisons=comparisons,
    )
