"""Summary statistics for experiment series.

Thin helpers used by the benchmark harness to aggregate repeated
simulation runs into the mean/err rows the reports print.  Summaries,
percentiles and every interval that needs no draw (an empty, size-1 or
zero-spread sample) are standard library and give numpy's bits; numpy is
imported on first call of the resampling path only, so a report over an
unreplicated or deterministic sweep needs nothing installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import filterfalse, repeat
from operator import add
from typing import Iterable, List, Sequence

from repro.errors import ReproError, SpecError


def _numpy():
    try:
        import numpy
    except ImportError:
        raise ReproError(
            "bootstrap intervals over a sample with spread need numpy: "
            "pip install 'repro[report]'"
        ) from None
    return numpy


#: The bootstrap level and resample count of every report interval by default.
DEFAULT_LEVEL = 0.95
DEFAULT_N_BOOT = 1000


def check_interval_params(level: float, n_boot: int) -> None:
    """The one rule for interval parameters (report drivers apply it pre-sweep)."""
    if not 0.0 < level < 1.0:
        raise SpecError(
            f"confidence level must be in (0, 1), got {level}",
            field="report.level", value=level,
        )
    if int(n_boot) < 1:
        raise SpecError(
            f"bootstrap resamples must be >= 1, got {n_boot}",
            field="report.boot", value=n_boot,
        )


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} median={self.median:.4g} max={self.maximum:.4g}"
        )


def _pairwise_sum(values: List[float]) -> float:
    """numpy's pairwise summation of a float64 vector, addition for
    addition: a running sum under eight values; up to 128, eight running
    sums over the residues mod 8, combined as a balanced tree, then the
    tail in order; above, the halves split at ``n // 2`` rounded down to a
    multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        end = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = [reduce(add, values[j:end:8]) for j in range(8)]
        tree = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        return reduce(add, values[end:], tree)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _sum(values: List[float]) -> float:
    """``np.add.reduce`` bit for bit: add's +0.0 identity, then the
    pairwise sum."""
    return 0.0 + _pairwise_sum(values)


def _mixes_zero_signs(values: Iterable[float]) -> bool:
    """Whether a sample holds both 0.0 and -0.0: the one input whose
    extreme (or percentile) bits the values alone do not define."""
    zeros = filterfalse(None, values)  # NaN is truthy: the falsy floats are the zeros
    return len(set(map(math.copysign, repeat(1.0), zeros))) == 2


def summarize(values: Iterable[float]) -> Summary:
    """Summarize a sample of floats.

    Every field is numpy's bit for bit (``mean``, ``std(ddof=1)``,
    ``min``, ``max``, ``median``), computed on Python floats.  numpy
    orders tied zeros by SIMD lane, so only a sample whose minimum or
    maximum is a zero of both signs asks numpy for its extremes.

    Raises ``ValueError`` on an empty sample — silently returning NaNs hides
    harness bugs where a sweep produced no runs.
    """
    values = list(map(float, values))
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = _sum(values) / n
    std = 0.0
    if n > 1:
        std = math.sqrt(_sum([(v - mean) * (v - mean) for v in values]) / (n - 1))
    if any(map(math.isnan, values)):  # numpy's extremes and median propagate NaN
        return Summary(n, mean, std, math.nan, math.nan, math.nan)
    ordered = sorted(values)
    low, high = ordered[0], ordered[-1]
    if (low == 0.0 or high == 0.0) and _mixes_zero_signs(values):
        arr = _numpy().asarray(values, dtype=float)
        low, high = float(arr.min()), float(arr.max())
    mid = n // 2
    if n % 2:
        median = ordered[mid] + 0.0
    else:
        median = (0.0 + ordered[mid - 1] + ordered[mid]) / 2.0
    return Summary(n=n, mean=mean, std=std, minimum=low, maximum=high, median=median)


def _lerp_percentiles(values: Iterable[float], probs: Sequence[float]) -> tuple:
    """``np.percentile(values, probs)`` bit for bit: sort, then numpy's
    two-sided linear interpolation between the neighbours of
    ``(n - 1) * p / 100``; a NaN anywhere makes every percentile NaN."""
    ordered = sorted(map(float, values))
    if not ordered:
        raise ValueError("cannot take percentiles of an empty sample")
    for v in ordered:
        if v != v:
            return (math.nan,) * len(probs)
    last = len(ordered) - 1
    out = []
    for p in probs:
        virtual = last * (p / 100.0)
        lo = int(virtual)
        if lo == last:  # numpy reads index -1 twice and keeps the weight
            a = b = ordered[last]
            t = virtual + 1.0
        else:
            a, b = ordered[lo], ordered[lo + 1]
            t = virtual - lo
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of a sample (linear interpolation).

    The IQR pair the report subsystem prints next to every median; for a
    single-element sample all three coincide.
    """
    return _lerp_percentiles(values, (25.0, 50.0, 75.0))


def percentiles(
    values: Sequence[float], probs: Sequence[float] = (50.0, 95.0, 99.0)
) -> tuple[float, ...]:
    """Arbitrary percentiles of a sample (linear interpolation).

    The latency-tail companion of :func:`quartiles` — the load subsystem
    reports sojourn p50/p95/p99 through it.  ``probs`` are percentages in
    ``[0, 100]``; an empty sample raises ``ValueError``.
    """
    probs = list(probs)
    for p in probs:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile probabilities must be in [0, 100], got {p}")
    return _lerp_percentiles(values, probs)


def _zero_spread(values: List[float]) -> float | None:
    """The one value of a sample without spread, else ``None``: every
    resample then has that median, so the interval is exact undrawn.

    ``+ 0.0`` reads -0.0 as the +0.0 :func:`_resampled_medians` gives;
    a NaN anywhere means resampling (Python's ``min`` and ``max`` would
    answer by where it sits); within a factor four of overflow
    ``(v + v) / 2`` and a difference of two medians stop being exact.
    """
    if any(map(math.isnan, values)):
        return None
    low = min(values)
    if low == max(values) and math.isfinite(4.0 * low):
        return low + 0.0
    return None


def _resampled_medians(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.median(arr[idx], axis=1)`` bit for bit, by a row sort.

    ``+ 0.0`` is the +0.0 ``np.mean`` starts its sum from (a -0.0 median
    comes out +0.0); a sort puts NaN last, so a row's last element says
    whether ``np.median`` would have returned NaN for it.
    """
    np = _numpy()
    rows = np.sort(arr[idx], axis=1)
    mid = arr.size // 2
    if arr.size % 2:
        medians = rows[:, mid] + 0.0
    else:
        medians = (rows[:, mid - 1] + rows[:, mid] + 0.0) / 2.0
    medians[np.isnan(rows[:, -1])] = np.nan
    return medians


def bootstrap_median_ci(
    values: Sequence[float],
    level: float = DEFAULT_LEVEL,
    n_boot: int = DEFAULT_N_BOOT,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for the sample median.

    Resamples with replacement ``n_boot`` times from a PCG64 stream
    seeded by ``seed``, so the interval is a pure function of
    ``(values, level, n_boot, seed)`` — reports built from it are
    byte-deterministic.  A single-element or zero-spread sample returns
    its exact degenerate interval without drawing; only a draw imports
    numpy.
    """
    check_interval_params(level, n_boot)
    values = list(map(float, values))
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if len(values) == 1:
        return (values[0], values[0])
    value = _zero_spread(values)
    if value is not None:
        return (value, value)
    np = _numpy()
    arr = np.asarray(values, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, arr.size, size=(int(n_boot), arr.size))
    medians = _resampled_medians(arr, idx)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(medians, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return (float(lo), float(hi))


def bootstrap_delta_ci(
    base: Sequence[float],
    other: Sequence[float],
    level: float = DEFAULT_LEVEL,
    n_boot: int = DEFAULT_N_BOOT,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap CI for ``median(other) - median(base)``.

    The two samples are resampled independently (they come from
    independently-seeded replicate runs), so the interval covers the
    difference of medians under replicate-to-replicate variation.
    Degenerate (both single-element or both zero-spread) inputs return
    an exact interval without drawing or importing numpy.
    """
    check_interval_params(level, n_boot)
    base = list(map(float, base))
    other = list(map(float, other))
    if not base or not other:
        raise ValueError("cannot bootstrap an empty sample")
    if len(base) == 1 and len(other) == 1:
        delta = other[0] - base[0]
        return (delta, delta)
    value_a, value_b = _zero_spread(base), _zero_spread(other)
    if value_a is not None and value_b is not None:
        return (value_b - value_a, value_b - value_a)
    np = _numpy()
    a = np.asarray(base, dtype=float)
    b = np.asarray(other, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    idx_a = rng.integers(0, a.size, size=(int(n_boot), a.size))
    idx_b = rng.integers(0, b.size, size=(int(n_boot), b.size))
    deltas = _resampled_medians(b, idx_b) - _resampled_medians(a, idx_a)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(deltas, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return (float(lo), float(hi))
