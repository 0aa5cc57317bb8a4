"""Deterministic discrete-event queue.

Events are ``(time, priority, seq, action, label)`` tuples in a binary
heap.  ``seq`` is a monotone tie-breaker, so events with equal time and
priority fire in schedule order — this removes heap nondeterminism and
makes every run exactly reproducible.  ``seq`` is unique, so sift
comparisons run as C-level tuple compares that never reach the action.

Actions are zero-argument callables.  A short ``label`` accompanies each
event for traces and stall diagnostics.

An event is its heap entry: :meth:`EventQueue.schedule` returns the
event's ``seq``, and :meth:`EventQueue.cancel` withdraws it by that
number.  A withdrawn entry stays in the heap until it reaches the top,
where it is popped without moving ``now`` or counting as an event.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import SimulationBudgetError


#: Priorities order simultaneous events: deliver messages before running
#: task slices so a result arriving "now" is visible to the slice.
PRIORITY_MESSAGE = 0
PRIORITY_CONTROL = 1
PRIORITY_RUN = 2


_HeapItem = Tuple[float, int, int, Callable[[], None], str]


class EventQueue:
    """A deterministic event heap with cancellation support."""

    def __init__(self) -> None:
        self._heap: List[_HeapItem] = []
        self._withdrawn: Set[int] = set()
        self._seq = 0
        self.now: float = 0.0
        self.events_processed = 0

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
        priority: int = PRIORITY_CONTROL,
    ) -> int:
        """Schedule ``action`` at absolute ``time``; returns the event's
        sequence number, which :meth:`cancel` takes."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now} ({label})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, action, label))
        return seq

    def after(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
        priority: int = PRIORITY_CONTROL,
    ) -> int:
        """Schedule ``action`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay} for event {label!r}")
        return self.schedule(self.now + delay, action, label, priority)

    def cancel(self, seq: int) -> None:
        """Withdraw the pending event ``seq`` (it is skipped when popped)."""
        self._withdrawn.add(seq)

    def is_empty(self) -> bool:
        return self.pending() == 0

    def step(self) -> Optional[str]:
        """Run the next event; returns its label, or None if none is left."""
        target = self.events_processed + 1
        label = self.run(until=lambda: self.events_processed >= target)
        return None if label is None else label or "<event>"

    def run(self, until: Callable[[], bool], max_events: int = 2_000_000) -> Optional[str]:
        """Process events until ``until()`` is true or the queue drains.

        Returns the label of the last event run (None if none ran) once
        ``until()`` holds, or None if the queue drained first.  Raises
        :class:`SimulationBudgetError` after ``max_events`` events, the
        safety valve — a drained queue with ``until()`` false is left for
        the caller to diagnose (it distinguishes stalls from budget
        blowups).
        """
        heap = self._heap
        withdrawn = self._withdrawn
        pop = heapq.heappop
        processed = 0
        label = None
        while not until():
            if processed >= max_events:
                raise SimulationBudgetError(
                    f"exceeded event budget of {max_events} events at t={self.now}"
                )
            while heap and heap[0][2] in withdrawn:
                withdrawn.remove(pop(heap)[2])
            if not heap:
                return None
            self.now, _, _, action, label = pop(heap)
            processed += 1
            self.events_processed += 1
            action()
        return label

    def clear(self) -> None:
        """Drop every queued event, and with it every action it holds."""
        self._heap.clear()
        self._withdrawn.clear()

    def pending(self) -> int:
        """Number of live (non-withdrawn) events still queued."""
        withdrawn = self._withdrawn
        return sum(1 for item in self._heap if item[2] not in withdrawn)
