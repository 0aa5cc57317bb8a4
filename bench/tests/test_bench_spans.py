"""Span self time is duration minus what the direct children cover."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchlib.spans import Spans, self_seconds_by_name, self_times  # noqa: E402


def _span(name, start, end, parent, rep=1):
    return {"name": name, "start": start, "end": end, "parent": parent, "rep": rep}


def test_self_time_subtracts_direct_children_only():
    records = [
        _span("rep", 0.0, 10.0, None),
        _span("exp.cold", 1.0, 5.0, 0),
        _span("inner", 2.0, 3.0, 1),
        _span("exp.cold", 6.0, 8.0, 0, rep=2),
    ]
    assert self_times(records) == [4.0, 3.0, 1.0, 2.0]
    assert self_seconds_by_name(records) == {"rep": 4.0, "exp.cold": 5.0, "inner": 1.0}
    assert self_seconds_by_name(records, rep=2) == {"exp.cold": 2.0}


def test_recorder_nests_and_tags_reps():
    spans = Spans(enabled=True)
    spans.rep = 7
    with spans.span("outer"):
        with spans.span("a"):
            pass
        with spans.span("b"):
            pass
    assert [(r["name"], r["parent"], r["rep"]) for r in spans.records] == [
        ("outer", None, 7), ("a", 0, 7), ("b", 0, 7),
    ]
    assert all(r["end"] >= r["start"] for r in spans.records)
    assert all(seconds >= 0.0 for seconds in self_times(spans.records))


def test_disabled_recorder_records_nothing():
    spans = Spans(enabled=False)
    with spans.span("outer"):
        pass
    assert spans.records == []
