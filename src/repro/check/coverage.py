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
from typing import Any, Dict, Tuple

from repro.check.oracles import CheckContext, CheckReport

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


def signature_from_context(ctx: CheckContext, report: CheckReport) -> CoverageSignature:
    """Extract the coverage signature of one evaluated run.

    Reads ``ctx.recovery``, the view ``bounded-recovery`` and
    ``weak-recovery`` judged, so the margin here is that oracle's margin.
    """
    recovery = ctx.recovery
    return CoverageSignature(
        statuses=tuple((v.oracle, v.status) for v in report.verdicts),
        windows=bucket_count(recovery.reissues),
        overlap=bucket_count(recovery.max_overlap),
        left_open=bucket_count(len(recovery.still_open)),
        false_positives=bucket_count(len(recovery.false_positives)),
        one_sided=bucket_count(len(recovery.one_sided)),
        reasons=recovery.reasons,
        margin=bucket_margin(recovery.worst_ratio),
        completed=ctx.completed,
    )
