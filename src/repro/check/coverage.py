"""Coverage signatures: the feedback signal for guided schedule search.

A :class:`CoverageSignature` is a deterministic fingerprint of *what a
run did*, extracted from its trace and oracle verdicts.  Two schedules
that drive the system through the same recovery behavior — same oracle
statuses, same recovery-window shape, same detector mistakes, same
reissue reasons, same bounded-recovery margin bucket — collapse to the
same signature; a schedule that reaches a new regime produces a new
one.  The coverage-guided searcher (:mod:`repro.check.search`) keeps a
corpus of schedules with novel signatures and mutates that frontier,
so the adversary is steered toward rare interleavings instead of
re-drawing the easy one-sided-drop regime forever.

Determinism contract (pinned by ``tests/check/test_coverage.py``):

* signatures are pure functions of the :class:`CheckContext` and
  :class:`CheckReport` — no wall clock, no ``hash()``, no dict-order
  dependence (every set-valued field is sorted before freezing);
* continuous quantities (window durations, margins) are bucketed on
  fixed grids, so float noise cannot split a regime into two
  signatures;
* the same run signed trace-on and trace-forced, or signed in two
  different processes, yields the byte-identical signature key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.check.oracles import CheckContext, CheckReport, recovery_windows

#: Count buckets: 0, 1, 2, 3 exact, then powers of two (4-7, 8-15, ...).
#: A fixed, documented grid — signatures from different processes and
#: different trace volumes land in the same bucket or a genuinely new one.
_COUNT_THRESHOLDS = (0, 1, 2, 3, 4, 8, 16, 32, 64, 128)

#: Margin grid: worst recovery-time/horizon ratio in steps of 0.25,
#: capped at 10x the horizon (bucket 40).
MARGIN_GRID = 0.25
_MARGIN_CAP = 40


def bucket_count(n: int) -> int:
    """Bucket a non-negative count on the fixed log-ish grid."""
    n = int(n)
    for index in range(len(_COUNT_THRESHOLDS) - 1, -1, -1):
        if n >= _COUNT_THRESHOLDS[index]:
            return index
    return 0


def bucket_margin(ratio: float) -> int:
    """Bucket a recovery-time/horizon ratio on the 0.25 grid (capped)."""
    if ratio <= 0.0:
        return 0
    return min(_MARGIN_CAP, int(ratio / MARGIN_GRID))


@dataclass(frozen=True)
class RecoveryStats:
    """Shape of a run's recovery windows (reissue -> close intervals)."""

    #: Recovery windows opened (= ``recovery_reissue`` records).
    windows: int
    #: Maximum number of simultaneously-open windows.
    max_overlap: int
    #: Worst window-duration / horizon ratio (open windows are measured
    #: to the end of the run).  0.0 when no window ever opened.
    worst_ratio: float
    #: Windows still open when the run ended.
    left_open: int


def recovery_stats(ctx: CheckContext) -> RecoveryStats:
    """Measure the recovery windows of one run.

    Reads the pairing the ``bounded-recovery`` oracle judges
    (:func:`~repro.check.oracles.recovery_windows`), so the worst ratio
    seen here is that oracle's margin.
    """
    total, max_overlap, closed, still_open = recovery_windows(ctx)
    horizon = ctx.horizon if ctx.horizon > 0 else 1.0
    spans = [done - opened for _, opened, done in closed]
    spans += [ctx.makespan - opened for opened in still_open.values()]
    return RecoveryStats(
        windows=total,
        max_overlap=max_overlap,
        worst_ratio=round(max([0.0] + [span / horizon for span in spans]), 6),
        left_open=len(still_open),
    )


@dataclass(frozen=True)
class CoverageSignature:
    """One run's behavioral fingerprint, on fixed grids.

    Every field is hashable and canonically ordered, so signatures
    compare, set-dedupe, and serialize identically across processes.
    """

    #: ``(oracle, status)`` in catalog order.
    statuses: Tuple[Tuple[str, str], ...]
    #: Recovery-window count bucket (:func:`bucket_count`).
    windows: int
    #: Max concurrently-open recovery windows, bucketed.
    overlap: int
    #: Recovery windows left open at end of run, bucketed.
    left_open: int
    #: False-positive failure detections (target never crashed), bucketed.
    false_positives: int
    #: One-sided false-positive detector pairs, bucketed.
    one_sided: int
    #: Sorted set of ``recovery_reissue`` reasons seen.
    reasons: Tuple[str, ...]
    #: Worst recovery-time/horizon ratio on the 0.25 grid
    #: (:func:`bucket_margin`).
    margin: int
    #: Did the run complete?
    completed: bool

    def key(self) -> str:
        """Canonical one-line key (the corpus/frontier dedup identity)."""
        statuses = ",".join(f"{o}={s}" for o, s in self.statuses)
        reasons = ",".join(self.reasons)
        return (
            f"s[{statuses}]|w{self.windows}|o{self.overlap}"
            f"|l{self.left_open}|fp{self.false_positives}"
            f"|os{self.one_sided}|r[{reasons}]|m{self.margin}"
            f"|c{int(self.completed)}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "statuses": {oracle: status for oracle, status in self.statuses},
            "windows": self.windows,
            "overlap": self.overlap,
            "left_open": self.left_open,
            "false_positives": self.false_positives,
            "one_sided": self.one_sided,
            "reasons": list(self.reasons),
            "margin": self.margin,
            "completed": self.completed,
        }


def signature_from_context(
    ctx: CheckContext, report: CheckReport, stats: Optional[RecoveryStats] = None
) -> CoverageSignature:
    """Extract the coverage signature of one evaluated run.

    ``stats`` hands in :func:`recovery_stats` of the same context when
    the caller already computed it.
    """
    if stats is None:
        stats = recovery_stats(ctx)
    false_pos, _, onesided = ctx.false_positives
    reasons = sorted(
        {str(r.extra.get("reason")) for r in ctx.trace.of_kind("recovery_reissue")}
    )
    return CoverageSignature(
        statuses=tuple((v.oracle, v.status) for v in report.verdicts),
        windows=bucket_count(stats.windows),
        overlap=bucket_count(stats.max_overlap),
        left_open=bucket_count(stats.left_open),
        false_positives=bucket_count(len(false_pos)),
        one_sided=bucket_count(len(onesided)),
        reasons=tuple(reasons),
        margin=bucket_margin(stats.worst_ratio),
        completed=ctx.completed,
    )
