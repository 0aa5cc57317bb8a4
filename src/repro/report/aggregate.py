"""Aggregate replicated sweep results into per-point statistics.

A replicated sweep (see ``ScenarioSpec.replications``) carries several
independently-seeded runs of every grid cell.  :func:`aggregate_sweep`
groups the cached per-point records back into cells and summarizes
every numeric metric — top-level result fields plus the ``metrics.*``
and ``fault_free.*`` sub-dicts — as median, IQR, and a percentile
bootstrap confidence interval for the median
(:func:`repro.util.stats.bootstrap_median_ci`).

Determinism: the bootstrap RNG is seeded from a stable sha256 hash of
``(scenario, cell axes, metric)``, so aggregating the same sweep twice
— on any machine — produces identical numbers.  Boolean outcome fields
(``completed``, ``verified``, ``correct``, ``ok``) are reported as the
count of true replicates rather than folded into the numeric summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exp.runner import SweepResult
from repro.exp.scenario import ScenarioSpec, get_scenario, stable_hash
from repro.util.stats import (
    DEFAULT_LEVEL, DEFAULT_N_BOOT, bootstrap_median_ci, quartiles, summarize,
)

#: Result fields never aggregated: non-numeric payloads and bookkeeping
#: whose variation across replicates is definitional, not statistical.
_SKIP_FIELDS = frozenset({"value", "text", "seed"})


def numeric_fields(result: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten one result record's numeric fields (one level of nesting).

    Sub-dict keys are dotted (``metrics.steps_wasted``); booleans and
    non-numeric values are excluded (booleans are outcomes, not
    measurements — see :func:`flag_fields`).
    """
    out: Dict[str, float] = {}
    for key, value in result.items():
        if key in _SKIP_FIELDS:
            continue
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
        elif isinstance(value, Mapping):
            for sub, subval in value.items():
                if isinstance(subval, bool) or not isinstance(subval, (int, float)):
                    continue
                out[f"{key}.{sub}"] = float(subval)
    return out


def flag_fields(result: Mapping[str, Any]) -> Dict[str, bool]:
    """Top-level boolean outcome fields of one result record."""
    return {
        key: value for key, value in result.items() if isinstance(value, bool)
    }


@dataclass(frozen=True)
class MetricSummary:
    """One metric across the replicates of one grid cell.

    ``ci_low``/``ci_high`` are bootstrapped on first read from the fields
    below: a consumer that prints none (the comparison layer) pays for none.
    """

    n: int
    median: float
    q1: float
    q3: float
    mean: float
    minimum: float
    maximum: float
    samples: Tuple[float, ...]
    level: float
    n_boot: int
    seed: int

    @classmethod
    def from_samples(
        cls, samples: Tuple[float, ...], level: float, n_boot: int, seed: int
    ) -> "MetricSummary":
        stats = summarize(samples)
        q1, med, q3 = quartiles(samples)
        return cls(
            n=stats.n,
            median=med,
            q1=q1,
            q3=q3,
            mean=stats.mean,
            minimum=stats.minimum,
            maximum=stats.maximum,
            samples=samples,
            level=level,
            n_boot=n_boot,
            seed=seed,
        )

    @cached_property
    def ci(self) -> Tuple[float, float]:
        """Percentile-bootstrap interval for the median, ``(low, high)``."""
        return bootstrap_median_ci(
            self.samples, level=self.level, n_boot=self.n_boot, seed=self.seed
        )

    @property
    def ci_low(self) -> float:
        return self.ci[0]

    @property
    def ci_high(self) -> float:
        return self.ci[1]

    def to_json(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass(frozen=True)
class CellSummary:
    """One grid cell: its axis assignment plus aggregated replicates.

    ``samples`` keeps the raw per-replicate values behind every summary
    (the comparison layer bootstraps deltas from them, and the JSON
    report carries them for reanalysis).  ``flags`` maps each boolean
    outcome field to its count of true replicates out of ``n``.
    ``text`` holds the first replicate's rendered block for ``figure``
    points (the regenerated paper table), else ``None``.
    """

    axes: Tuple[Tuple[str, Any], ...]
    n: int
    seeds: Tuple[int, ...]
    metrics: Mapping[str, MetricSummary]
    samples: Mapping[str, Tuple[float, ...]]
    flags: Mapping[str, int]
    text: Optional[str] = None

    def label(self) -> str:
        """Human-readable cell label, e.g. ``policy=rollback, fault_frac=0.4``."""
        if not self.axes:
            return "(single point)"
        return ", ".join(f"{name}={value}" for name, value in self.axes)


def bootstrap_seed(scenario: str, axes: Tuple[Tuple[str, Any], ...], metric: str) -> int:
    """Deterministic bootstrap seed for one ``(scenario, cell, metric)``."""
    return int(stable_hash([scenario, [list(pair) for pair in axes], metric]), 16)


@dataclass
class SweepAggregate:
    """A whole sweep, aggregated: one :class:`CellSummary` per grid cell."""

    scenario: str
    key: str
    title: str
    replications: int
    level: float
    n_boot: int
    axes: Tuple[str, ...]
    columns: Tuple[str, ...]
    cells: List[CellSummary]

    def cell_by_axes(self, **axis_values: Any) -> CellSummary:
        """Look up one cell by (a subset of) its axis assignment."""
        matches = [
            cell
            for cell in self.cells
            if all(dict(cell.axes).get(k) == v for k, v in axis_values.items())
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{axis_values!r} matches {len(matches)} cells of "
                f"{self.scenario!r} (need exactly 1)"
            )
        return matches[0]


def aggregate_sweep(
    sweep: SweepResult,
    spec: Optional[ScenarioSpec] = None,
    level: float = DEFAULT_LEVEL,
    n_boot: int = DEFAULT_N_BOOT,
) -> SweepAggregate:
    """Group a sweep's points into cells and summarize every metric.

    Points are grouped by their axis-value assignment (replicates of
    one cell share it); cells keep sweep order.  Works on unreplicated
    sweeps too — every summary is then a degenerate n=1 interval, which
    the emitters render honestly rather than hiding.

    The replication count is read from the *sweep* (set by
    ``run_scenario``), not from the registered spec — a replicated
    sweep aggregated without its derived spec must not report
    ``replications=1``.
    """
    spec = spec if spec is not None else get_scenario(sweep.scenario)
    axis_names = tuple(spec.axes)

    order: List[Tuple[Any, ...]] = []
    grouped: Dict[Tuple[Any, ...], List[Mapping[str, Any]]] = {}
    for point in sweep.points:
        cell_key = tuple(point["params"].get(a) for a in axis_names)
        if cell_key not in grouped:
            grouped[cell_key] = []
            order.append(cell_key)
        grouped[cell_key].append(point)

    cells: List[CellSummary] = []
    for cell_key in order:
        points = grouped[cell_key]
        axes = tuple(zip(axis_names, cell_key))
        series: Dict[str, List[float]] = {}
        flags: Dict[str, int] = {}
        text: Optional[str] = None
        for point in points:
            result = point["result"]
            for metric, value in numeric_fields(result).items():
                series.setdefault(metric, []).append(value)
            for flag, value in flag_fields(result).items():
                flags[flag] = flags.get(flag, 0) + (1 if value else 0)
            if text is None and isinstance(result.get("text"), str):
                text = result["text"]
        n = len(points)
        samples = {
            metric: tuple(values)
            for metric, values in series.items()
            if len(values) == n  # drop metrics absent from some replicates
        }
        metrics = {
            metric: MetricSummary.from_samples(
                values,
                level=level,
                n_boot=n_boot,
                seed=bootstrap_seed(sweep.scenario, axes, metric),
            )
            for metric, values in samples.items()
        }
        cells.append(
            CellSummary(
                axes=axes,
                n=n,
                seeds=tuple(point["seed"] for point in points),
                metrics=metrics,
                samples=samples,
                flags=flags,
                text=text,
            )
        )
    return SweepAggregate(
        scenario=sweep.scenario,
        key=sweep.key,
        title=spec.title,
        replications=max(1, sweep.replications),
        level=level,
        n_boot=n_boot,
        axes=axis_names,
        columns=tuple(spec.columns),
        cells=cells,
    )


def select_display(columns: Tuple[str, ...], available) -> List[str]:
    """Resolve display ``columns`` against a flattened metric namespace.

    ``makespan`` (when measured) leads, then each column as-is or under
    its ``metrics.`` prefix.  Shared by the report and compare tables so
    the two can never resolve columns differently; the full metric set
    lives in the JSON report regardless.
    """
    chosen: List[str] = []

    def add(name: str) -> None:
        if name in available and name not in chosen:
            chosen.append(name)

    add("makespan")
    for column in columns:
        add(column)
        add(f"metrics.{column}")
    return chosen


def display_metrics(aggregate: SweepAggregate, cell: CellSummary) -> List[str]:
    """The metric names a human-facing table shows for one cell."""
    return select_display(aggregate.columns, cell.metrics)
