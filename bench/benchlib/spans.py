"""In-memory spans around the public calls a workload makes.

A span is ``name, start, end, parent, rep``; ``parent`` is the index of
the enclosing span (None at the top), ``rep`` the rep it belongs to.
Spans stay in memory and are written out once, when the benchmark ends.
A disabled recorder records nothing, so the timed (``--trace 0``) reps
pay no instrumentation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Spans:
    """Span recorder; ``enabled=False`` turns :meth:`span` into a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self.rep: Optional[int] = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.records)
        self.records.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "rep": self.rep,
            }
        )
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index]["end"] = time.perf_counter()
            self._open.pop()


def self_times(records: List[Dict[str, Any]]) -> List[float]:
    """Per-span self time: duration minus the durations of direct children.

    Children of one span never overlap (the recorder is a stack), so the
    part of a span's interval its children cover is the plain sum.
    """
    out = [r["end"] - r["start"] for r in records]
    for r in records:
        if r["parent"] is not None:
            out[r["parent"]] -= r["end"] - r["start"]
    return out


def self_seconds_by_name(
    records: List[Dict[str, Any]], rep: Optional[int] = None
) -> Dict[str, float]:
    """Sum of self time per span name, optionally for one rep only."""
    totals: Dict[str, float] = {}
    for record, seconds in zip(records, self_times(records)):
        if rep is None or record["rep"] == rep:
            totals[record["name"]] = totals.get(record["name"], 0.0) + seconds
    return totals
