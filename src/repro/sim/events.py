"""Deterministic discrete-event queue.

Events are ``(time, priority, seq)``-ordered entries in a binary heap.
``seq`` is a monotone tie-breaker, so events with equal time and priority
fire in schedule order — this removes heap nondeterminism and makes every
run exactly reproducible.

Actions are zero-argument callables.  A short ``label`` accompanies each
event for traces and stall diagnostics.

This queue is the innermost loop of every simulation.  The heap holds
``(time, priority, seq, entry)`` tuples so sift comparisons run as
C-level tuple compares (``seq`` is unique, so comparison never reaches
the entry object), and entries themselves are small ``__slots__``
handles that exist only for cancellation and diagnostics.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationBudgetError


#: Priorities order simultaneous events: deliver messages before running
#: task slices so a result arriving "now" is visible to the slice.
PRIORITY_MESSAGE = 0
PRIORITY_CONTROL = 1
PRIORITY_RUN = 2


class _Entry:
    """Handle for one scheduled event (cancellation + diagnostics)."""

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
        label: str = "",
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<_Entry t={self.time} p={self.priority} #{self.seq} {self.label}{state}>"


_HeapItem = Tuple[float, int, int, _Entry]


class EventQueue:
    """A deterministic event heap with cancellation support."""

    def __init__(self) -> None:
        self._heap: List[_HeapItem] = []
        self._seq = 0
        self.now: float = 0.0
        self.events_processed = 0

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
        priority: int = PRIORITY_CONTROL,
    ) -> _Entry:
        """Schedule ``action`` at absolute ``time``; returns a handle that
        can be passed to :meth:`cancel`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now} ({label})"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = _Entry(time, priority, seq, action, label)
        heapq.heappush(self._heap, (time, priority, seq, entry))
        return entry

    def after(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
        priority: int = PRIORITY_CONTROL,
    ) -> _Entry:
        """Schedule ``action`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay} for event {label!r}")
        return self.schedule(self.now + delay, action, label, priority)

    @staticmethod
    def cancel(entry: _Entry) -> None:
        """Cancel a scheduled event (it is skipped when popped)."""
        entry.cancelled = True

    def is_empty(self) -> bool:
        self._drop_cancelled_head()
        return not self._heap

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)

    def step(self) -> Optional[str]:
        """Pop and run the next event; returns its label, or None if empty.

        NOTE: :meth:`run` inlines this pop/cancel/dispatch body for the
        hot loop — a semantic change here must be mirrored there (the
        micro-event-queue benchmark and unit tests drain through both).
        """
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][3].cancelled:
            pop(heap)
        if not heap:
            return None
        entry = pop(heap)[3]
        self.now = entry.time
        self.events_processed += 1
        entry.action()
        return entry.label or "<event>"

    def run(self, until: Callable[[], bool], max_events: int = 2_000_000) -> None:
        """Process events until ``until()`` is true or the queue drains.

        Raises :class:`SimulationBudgetError` after ``max_events`` events,
        the safety valve — a drained queue with ``until()`` false is left
        for the caller to diagnose (it distinguishes stalls from budget
        blowups).

        The loop body is a deliberate inline copy of :meth:`step` (no
        per-event method call in the innermost loop); keep the two in
        lockstep.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while not until():
            if processed >= max_events:
                raise SimulationBudgetError(
                    f"exceeded event budget of {max_events} events at t={self.now}"
                )
            while heap and heap[0][3].cancelled:
                pop(heap)
            if not heap:
                return
            entry = pop(heap)[3]
            self.now = entry.time
            processed += 1
            self.events_processed += 1
            entry.action()

    def clear(self) -> None:
        """Drop every queued event and unhook its action: a handle someone
        still holds (a spawn record's ack timer) then pins nothing."""
        for item in self._heap:
            item[3].action = None
        self._heap.clear()

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for item in self._heap if not item[3].cancelled)
