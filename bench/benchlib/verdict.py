"""The rule ``bench/compare.py`` judges one (metric, workload) pair by."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

BETTER, WITHIN, WORSE, UNRESOLVED = "better", "within bound", "worse", "unresolved"


def quartile_spread(samples: Sequence[float]) -> float:
    """Interquartile range as a share of the median; 0 below two samples."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def judge(
    better: str,
    bound: float,
    base: float,
    new: float,
    base_samples: Sequence[float] = (),
    new_samples: Sequence[float] = (),
) -> Tuple[str, float]:
    """Verdict on ``new`` against ``base``, and the change as a share of ``base``.

    The change is signed so that positive means worse whichever way the
    metric points.  Where either side's run-to-run spread is wider than
    the bound and the two sides' samples overlap, the pair is
    *unresolved*: the runs cannot tell a regression from noise, and
    saying "within bound" would claim they can.
    """
    change = (new - base) / base if base else float(new != base)
    if better == "higher":
        change = -change
    spread = max(quartile_spread(base_samples), quartile_spread(new_samples))
    overlap = (
        bool(base_samples)
        and bool(new_samples)
        and min(new_samples) <= max(base_samples)
        and min(base_samples) <= max(new_samples)
    )
    if spread > bound and overlap:
        return UNRESOLVED, change
    if change > bound:
        return WORSE, change
    if change < -bound:
        return BETTER, change
    return WITHIN, change
