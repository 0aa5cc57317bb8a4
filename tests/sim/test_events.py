"""Tests for the deterministic event queue."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationBudgetError
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MESSAGE, PRIORITY_RUN, EventQueue


class TestScheduling:
    def test_runs_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(3.0, lambda: log.append("c"))
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(2.0, lambda: log.append("b"))
        q.run(until=lambda: False)
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_priority_then_seq(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append("run"), priority=PRIORITY_RUN)
        q.schedule(1.0, lambda: log.append("msg1"), priority=PRIORITY_MESSAGE)
        q.schedule(1.0, lambda: log.append("ctl"), priority=PRIORITY_CONTROL)
        q.schedule(1.0, lambda: log.append("msg2"), priority=PRIORITY_MESSAGE)
        q.run(until=lambda: False)
        assert log == ["msg1", "msg2", "ctl", "run"]

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(5.0, lambda: seen.append(q.now))
        q.run(until=lambda: False)
        assert seen == [5.0]
        assert q.now == 5.0

    def test_schedule_in_past_rejected(self):
        q = EventQueue()
        q.schedule(10.0, lambda: None)
        q.step()
        with pytest.raises(ValueError):
            q.schedule(5.0, lambda: None)

    def test_after_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().after(-1.0, lambda: None)

    def test_after_relative(self):
        q = EventQueue()
        q.schedule(10.0, lambda: q.after(5.0, lambda: None, label="later"))
        q.step()
        assert q.step() == "later"
        assert q.now == 15.0

    def test_events_scheduled_during_run_execute(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: q.schedule(2.0, lambda: log.append("nested")))
        q.run(until=lambda: False)
        assert log == ["nested"]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        log = []
        handle = q.schedule(1.0, lambda: log.append("x"))
        q.cancel(handle)
        q.run(until=lambda: False)
        assert log == []

    def test_pending_excludes_cancelled(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert q.pending() == 2
        q.cancel(h)
        assert q.pending() == 1

    def test_is_empty_skips_cancelled(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda: None)
        q.cancel(h)
        assert q.is_empty()


class TestBudgets:
    def test_event_budget(self):
        q = EventQueue()

        def reschedule():
            q.after(1.0, reschedule)

        q.schedule(0.0, reschedule)
        with pytest.raises(SimulationBudgetError):
            q.run(until=lambda: False, max_events=100)

    def test_until_stops(self):
        q = EventQueue()
        count = []
        for i in range(10):
            q.schedule(float(i), lambda: count.append(1))
        q.run(until=lambda: len(count) >= 3)
        assert len(count) == 3

    def test_drained_queue_returns(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run(until=lambda: False)  # must not hang or raise
        assert q.is_empty()


@given(st.lists(st.tuples(st.floats(0, 100), st.integers(0, 2)), max_size=30))
def test_global_time_monotonicity(entries):
    """Execution times never go backwards, whatever the schedule."""
    q = EventQueue()
    seen = []
    for t, prio in entries:
        q.schedule(t, lambda: seen.append(q.now), priority=prio)
    q.run(until=lambda: False)
    assert seen == sorted(seen)
    assert len(seen) == len(entries)
