"""Pair two aggregated sweeps — or two values of one axis — point by point.

Two comparison shapes cover the repo's evaluation questions:

- :func:`compare_aggregates` joins the cells of two scenarios on their
  shared axes (e.g. the paper policy's sweep against a ``baselines/``
  comparator sweep over the same fault fractions).
- :func:`split_compare` compares values of one axis *within* a single
  scenario (``rollback`` vs ``splice`` along ``policy``; the empty
  nemesis control vs each adversary along ``nemesis``), pairing cells
  that agree on every remaining axis.

Each paired cell yields a :class:`MetricDelta` per shared metric:
the two medians, their difference, the ratio, and a bootstrap
confidence interval for the difference of medians at the base aggregate's
level and resample count (:func:`repro.util.stats.bootstrap_delta_ci`),
resampling the two replicate sets independently.  Bootstrap seeds are
stable hashes of the pairing, so comparisons are byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SpecError
from repro.report.aggregate import CellSummary, SweepAggregate
from repro.exp.scenario import stable_hash
from repro.util.stats import bootstrap_delta_ci


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across a paired cell: ``other - base``."""

    metric: str
    base_median: float
    other_median: float
    delta: float
    ci_low: float
    ci_high: float
    ratio: Optional[float]  # other/base medians; None when base is 0
    n_base: int
    n_other: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "base_median": self.base_median,
            "other_median": self.other_median,
            "delta": self.delta,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ratio": self.ratio,
            "n_base": self.n_base,
            "n_other": self.n_other,
        }

    @property
    def significant(self) -> bool:
        """True when the delta CI excludes zero on actual replication.

        A single observation per side yields an exact zero-width
        interval that says nothing about variation, so it is never
        marked — significance requires n > 1 on both sides.
        """
        if self.n_base < 2 or self.n_other < 2:
            return False
        return (self.ci_low > 0 or self.ci_high < 0) and self.delta != 0


@dataclass(frozen=True)
class CellDelta:
    """One paired grid cell: the join-axis assignment plus metric deltas."""

    axes: Tuple[Tuple[str, Any], ...]
    deltas: Mapping[str, MetricDelta]
    base_flags: Mapping[str, int]
    other_flags: Mapping[str, int]
    n_base: int
    n_other: int

    def label(self) -> str:
        if not self.axes:
            return "(single point)"
        return ", ".join(f"{name}={value}" for name, value in self.axes)


@dataclass
class Comparison:
    """A full point-by-point comparison of two aggregated sweeps."""

    base_label: str
    other_label: str
    base_scenario: str
    other_scenario: str
    join_axes: Tuple[str, ...]
    columns: Tuple[str, ...]
    level: float
    cells: List[CellDelta]
    unmatched_base: List[Tuple[Tuple[str, Any], ...]]
    unmatched_other: List[Tuple[Tuple[str, Any], ...]]


def _project(cell: CellSummary, join_axes: Tuple[str, ...]) -> Tuple[Any, ...]:
    values = dict(cell.axes)
    return tuple(values.get(a) for a in join_axes)


def _index_cells(
    aggregate: SweepAggregate,
    cells: List[CellSummary],
    join_axes: Tuple[str, ...],
    side: str,
) -> Dict[Tuple[Any, ...], CellSummary]:
    indexed: Dict[Tuple[Any, ...], CellSummary] = {}
    for cell in cells:
        key = _project(cell, join_axes)
        if key in indexed:
            raise SpecError(
                f"{side} scenario {aggregate.scenario!r} has several cells at "
                f"{dict(zip(join_axes, key))!r}; pick a finer join (e.g. "
                "compare along one axis with --axis)",
                field="report.join", value=key,
            )
        indexed[key] = cell
    return indexed


def _pair_cells(
    base_agg: SweepAggregate,
    base_cells: List[CellSummary],
    other_agg: SweepAggregate,
    other_cells: List[CellSummary],
    join_axes: Tuple[str, ...],
    seed_tag: str,
) -> Tuple[List[CellDelta], List, List]:
    base_index = _index_cells(base_agg, base_cells, join_axes, "base")
    other_index = _index_cells(other_agg, other_cells, join_axes, "other")

    cells: List[CellDelta] = []
    unmatched_base = []
    for cell in base_cells:
        key = _project(cell, join_axes)
        partner = other_index.get(key)
        if partner is None:
            unmatched_base.append(cell.axes)
            continue
        axes = tuple(zip(join_axes, key))
        deltas: Dict[str, MetricDelta] = {}
        for metric in cell.metrics:
            if metric not in partner.metrics:
                continue
            base_samples = cell.samples[metric]
            other_samples = partner.samples[metric]
            seed = int(
                stable_hash([seed_tag, [list(p) for p in axes], metric, "delta"]), 16
            )
            ci_low, ci_high = bootstrap_delta_ci(
                base_samples, other_samples, level=base_agg.level,
                n_boot=base_agg.n_boot, seed=seed,
            )
            base_median = cell.metrics[metric].median
            other_median = partner.metrics[metric].median
            deltas[metric] = MetricDelta(
                metric=metric,
                base_median=base_median,
                other_median=other_median,
                delta=other_median - base_median,
                ci_low=ci_low,
                ci_high=ci_high,
                ratio=(other_median / base_median) if base_median else None,
                n_base=cell.n,
                n_other=partner.n,
            )
        cells.append(
            CellDelta(
                axes=axes,
                deltas=deltas,
                base_flags=cell.flags,
                other_flags=partner.flags,
                n_base=cell.n,
                n_other=partner.n,
            )
        )
    matched = {_project(c, join_axes) for c in base_cells if _project(c, join_axes) in other_index}
    unmatched_other = [
        cell.axes for cell in other_cells if _project(cell, join_axes) not in matched
    ]
    return cells, unmatched_base, unmatched_other


def compare_aggregates(
    base: SweepAggregate,
    other: SweepAggregate,
    join_axes: Optional[Tuple[str, ...]] = None,
) -> Comparison:
    """Join two scenarios' cells on their shared axes and compute deltas.

    ``join_axes`` defaults to the base scenario's axes that the other
    scenario also sweeps (in base declaration order).  Cells without a
    partner are listed as unmatched rather than silently dropped.
    """
    if join_axes is None:
        join_axes = tuple(a for a in base.axes if a in other.axes)
    else:
        unknown = [a for a in join_axes if a not in base.axes or a not in other.axes]
        if unknown:
            raise SpecError(
                f"join axes {unknown} are not shared by {base.scenario!r} "
                f"and {other.scenario!r}",
                field="report.join", value=unknown,
                allowed=tuple(a for a in base.axes if a in other.axes),
            )
    seed_tag = f"{base.scenario}|{other.scenario}"
    cells, unmatched_base, unmatched_other = _pair_cells(
        base, base.cells, other, other.cells, join_axes, seed_tag
    )
    return Comparison(
        base_label=base.scenario,
        other_label=other.scenario,
        base_scenario=base.scenario,
        other_scenario=other.scenario,
        join_axes=join_axes,
        columns=tuple(dict.fromkeys(base.columns + other.columns)),
        level=base.level,
        cells=cells,
        unmatched_base=unmatched_base,
        unmatched_other=unmatched_other,
    )


def split_compare(
    aggregate: SweepAggregate,
    axis: str,
    baseline: Optional[Any] = None,
) -> List[Comparison]:
    """Compare values of one axis within a single scenario.

    ``baseline`` names the reference value (default: the axis's first
    value in sweep order); every other value yields one
    :class:`Comparison` against it, joined on the remaining axes.
    """
    if axis not in aggregate.axes:
        raise SpecError(
            f"scenario {aggregate.scenario!r} has no axis {axis!r}",
            field="report.axis", value=axis, allowed=aggregate.axes,
        )
    values: List[Any] = []
    for cell in aggregate.cells:
        value = dict(cell.axes)[axis]
        if value not in values:
            values.append(value)
    if len(values) < 2:
        raise SpecError(
            f"axis {axis!r} of {aggregate.scenario!r} has a single value; "
            "nothing to compare",
            field="report.axis", value=axis,
        )
    if baseline is None:
        baseline = values[0]
    elif baseline not in values:
        raise SpecError(
            f"{baseline!r} is not a value of axis {axis!r}",
            field="report.baseline", value=baseline, allowed=tuple(values),
        )
    join_axes = tuple(a for a in aggregate.axes if a != axis)
    by_value: Dict[Any, List[CellSummary]] = {v: [] for v in values}
    for cell in aggregate.cells:
        by_value[dict(cell.axes)[axis]].append(cell)

    comparisons: List[Comparison] = []
    for value in values:
        if value == baseline:
            continue
        seed_tag = f"{aggregate.scenario}|{axis}={baseline!r}->{value!r}"
        cells, unmatched_base, unmatched_other = _pair_cells(
            aggregate, by_value[baseline], aggregate, by_value[value],
            join_axes, seed_tag,
        )
        comparisons.append(
            Comparison(
                base_label=f"{axis}={baseline}",
                other_label=f"{axis}={value}",
                base_scenario=aggregate.scenario,
                other_scenario=aggregate.scenario,
                join_axes=join_axes,
                columns=aggregate.columns,
                level=aggregate.level,
                cells=cells,
                unmatched_base=unmatched_base,
                unmatched_other=unmatched_other,
            )
        )
    return comparisons
