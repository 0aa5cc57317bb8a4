"""Classification of the eight splice orderings (paper Figure 5, §4.1).

For a dead task P with child C, the paper enumerates every ordering of
C's completion relative to four recovery events:

    P fails < P' invoked < C' invoked < C' completed < P' completed

    case 1  C never invoked
    case 2  C invoked but never completes
    case 3  C completes before P dies
    case 4  C completes after P dies, before P' is invoked
    case 5  C completes after P' is invoked, before C' is invoked
    case 6  C completes after C' is invoked
    case 7  C completes after C' has completed
    case 8  C completes after P' has completed

This module reconstructs the case for a given (P, C) pair from a run
trace.  Instances are told apart by provenance, not order of events: the
original C is the activation spawned by the *original* P instance; C' is
the activation spawned by (or salvaged into) the twin P'.  The Figure-5
driver (:mod:`repro.analysis.cases_driver`) steers the simulator into
each case and asserts the paper's predicted outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.stamps import LevelStamp
from repro.sim.trace import Trace


@dataclass(frozen=True)
class CaseTimeline:
    """The event times Figure 5 orders (None = never happened)."""

    p_failed: Optional[float]
    p_twin_invoked: Optional[float]
    p_twin_completed: Optional[float]
    c_invoked: Optional[float]
    c_completed: Optional[float]
    c_twin_invoked: Optional[float]
    c_twin_completed: Optional[float]


def _accepts(trace: Trace, stamp: LevelStamp) -> List[Tuple[float, int]]:
    return [(r.time, r.uid) for r in trace.of_kind("task_accepted") if r.stamp == stamp]


def _spawns(trace: Trace, stamp: LevelStamp) -> List[Tuple[float, int]]:
    return [(r.time, r.extra["parent_uid"]) for r in trace.of_kind("spawn") if r.stamp == stamp]


def _completion(trace: Trace, stamp: LevelStamp, uid: Optional[int]) -> Optional[float]:
    if uid is None:
        return None
    for r in trace.of_kind("task_completed"):
        if r.stamp == stamp and r.uid == uid:
            return r.time
    return None


def extract_timeline(
    trace: Trace, p_stamp: LevelStamp, c_stamp: LevelStamp
) -> CaseTimeline:
    """Pull the Figure-5 event times for tasks P and C out of a trace.

    Recovered activations carry the same stamp (that is the point of
    functional checkpoints), so instances are distinguished by provenance:
    the first activation of P's stamp is P, the second is the twin P';
    C vs C' by which P-instance's spawn produced them.
    """
    p_accepts = _accepts(trace, p_stamp)
    p_uid = p_accepts[0][1] if p_accepts else None
    p_twin_uid = p_accepts[1][1] if len(p_accepts) > 1 else None
    p_twin_invoked = p_accepts[1][0] if len(p_accepts) > 1 else None

    # Spawn events of C's stamp, attributed to P instances; accepts map to
    # spawns in emission order (the network preserves per-route FIFO for
    # the crafted scenarios, and lost packets only drop a trailing accept).
    c_spawns = _spawns(trace, c_stamp)
    c_accepts = _accepts(trace, c_stamp)
    c_uid = None
    c_invoked = None
    c_twin_uid = None
    c_twin_invoked = None
    for i, (spawn_time, parent_uid) in enumerate(c_spawns):
        accept = c_accepts[i] if i < len(c_accepts) else None
        if parent_uid == p_uid and c_uid is None:
            if accept is not None:
                c_invoked, c_uid = accept
        elif parent_uid == p_twin_uid and c_twin_uid is None:
            if accept is not None:
                c_twin_invoked, c_twin_uid = accept

    failures = trace.of_kind("node_failed")
    return CaseTimeline(
        p_failed=failures[0].time if failures else None,
        p_twin_invoked=p_twin_invoked,
        p_twin_completed=_completion(trace, p_stamp, p_twin_uid),
        c_invoked=c_invoked,
        c_completed=_completion(trace, c_stamp, c_uid),
        c_twin_invoked=c_twin_invoked,
        c_twin_completed=_completion(trace, c_stamp, c_twin_uid),
    )


def classify(t: CaseTimeline) -> int:
    """Map a timeline to the paper's case number (1-8)."""
    if t.c_invoked is None:
        return 1
    if t.c_completed is None:
        return 2
    if t.p_failed is not None and t.c_completed < t.p_failed:
        return 3
    if t.p_twin_invoked is None or t.c_completed < t.p_twin_invoked:
        return 4
    if t.c_twin_invoked is None or t.c_completed < t.c_twin_invoked:
        return 5
    if t.p_twin_completed is not None and t.c_completed > t.p_twin_completed:
        return 8
    if t.c_twin_completed is not None and t.c_completed > t.c_twin_completed:
        return 7
    return 6


def classify_from_trace(
    trace: Trace, p_stamp: LevelStamp, c_stamp: LevelStamp
) -> int:
    """Convenience: extract and classify in one step."""
    return classify(extract_timeline(trace, p_stamp, c_stamp))
