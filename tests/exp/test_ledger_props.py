"""Property-based ledger round-trips, over every registered scenario.

The resume contract is a pure function of the ledger bytes: whatever
subset of points a (possibly crashed, possibly duplicated) ledger
records as finished, replay must identify the resume work-list as
exactly the complement — for *every* registered scenario, not just
smoke.  Results here are synthetic (no scenario is actually run); the
real-execution byte-identity coverage lives in ``test_ledger_crash.py``.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.exp import (
    LedgerWarning,
    LedgerWriter,
    all_scenarios,
    expand,
    get_scenario,
    ledger_path,
    list_runs,
    replay_ledger,
    resume_run,
    run_scenario,
)
from repro.exp.points import RUNNERS

SCENARIOS = sorted(all_scenarios())
#: A header edit that removes the field.
_DROP = object()


def fake_result(index: int) -> dict:
    return {"ok": True, "value": float(index), "tag": f"point-{index}"}


def write_partial_ledger(ledger_dir: str, spec, finished) -> str:
    with LedgerWriter.start(ledger_dir, spec) as writer:
        for index in finished:
            writer.point_started(index)
            writer.point_finished(index, fake_result(index))
    return ledger_path(ledger_dir, spec.run_id())


class TestEveryScenarioRoundTrips:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_header_covers_the_full_grid(self, tmp_path, name):
        spec = get_scenario(name)
        path = write_partial_ledger(str(tmp_path), spec, finished=())
        state = replay_ledger(path)
        n = len(expand(spec))
        assert state.n_points == n
        assert [p["index"] for p in state.points] == list(range(n))
        assert state.key == spec.key()
        assert state.unfinished() == list(range(n))

    @given(data=st.data())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_resume_worklist_is_exact_complement(self, tmp_path, data):
        name = data.draw(st.sampled_from(SCENARIOS))
        spec = get_scenario(name)
        n = len(expand(spec))
        finished = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
        )
        ledger_dir = str(
            tmp_path / f"{name}-{len(finished)}-{sum(finished) % 9973}"
        )
        path = write_partial_ledger(ledger_dir, spec, sorted(finished))
        state = replay_ledger(path)
        assert set(state.finished) == finished
        assert state.unfinished() == sorted(set(range(n)) - finished)
        assert state.complete == (finished == set(range(n)))


class TestTruncationProperty:
    """Any byte-prefix of a valid ledger is a crash the design covers:
    replay either succeeds (finished set shrinks, never grows, never
    corrupts) or refuses cleanly because the header itself was lost."""

    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_prefix_replays_or_refuses_cleanly(self, tmp_path, data):
        spec = get_scenario("smoke")
        ledger_dir = str(tmp_path / data.draw(st.uuids()).hex)
        path = write_partial_ledger(ledger_dir, spec, finished=range(4))
        with open(path, "rb") as fh:
            full_bytes = fh.read()
        full = replay_ledger(path)

        cut = data.draw(st.integers(min_value=0, max_value=len(full_bytes)))
        with open(path, "wb") as fh:
            fh.write(full_bytes[:cut])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LedgerWarning)
                state = replay_ledger(path)
        except ReproError as exc:
            # only acceptable refusal: the prefix lost the header itself
            assert "run_started" in str(exc)
            return
        assert set(state.finished).issubset(set(full.finished))
        assert set(state.results) == set(state.finished)
        for index, result in state.results.items():
            assert result == full.results[index]
        assert state.key == full.key and state.n_points == full.n_points

    def test_newline_terminated_truncation_warns_nothing(self, tmp_path):
        spec = get_scenario("smoke")
        path = write_partial_ledger(str(tmp_path), spec, finished=range(2))
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.writelines(lines[:-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", LedgerWarning)
            state = replay_ledger(path)
        assert state.torn_lines == 0


class TestDuplicateRecords:
    @given(
        dupes=st.lists(st.integers(min_value=0, max_value=3), max_size=12),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_replaying_duplicates_is_idempotent(self, tmp_path, dupes):
        spec = get_scenario("smoke")
        ledger_dir = str(tmp_path / ("d" + "".join(map(str, dupes))))
        with LedgerWriter.start(ledger_dir, spec) as writer:
            for index in range(4):
                writer.point_finished(index, fake_result(index))
            for index in dupes:
                # e.g. a crash between fsync and the runner's ack, then
                # a resume that re-ran the point: the record repeats
                writer.point_finished(index, fake_result(index))
        state = replay_ledger(ledger_path(ledger_dir, spec.run_id()))
        assert set(state.finished) == {0, 1, 2, 3}
        assert state.results == {i: fake_result(i) for i in range(4)}
        assert state.unfinished() == []


class TestCrashWindow:
    """``point_started`` is written and flushed but not fsync'd, so a
    crash may leave the file cut anywhere, inside or just after one of
    those lines included.  Every such file must still be a prefix of the
    stream with at most one torn line, and resume to the same bytes."""

    def test_every_byte_truncation_resumes_byte_identical(self, tmp_path, monkeypatch):
        # what is under test is the ledger's bytes, so the points are
        # synthetic and the syncs no-ops: every cut gets a real resume
        monkeypatch.setitem(
            RUNNERS, "machine", lambda params: {"ok": True, "echo": dict(params)}
        )
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        cache, ledgers = str(tmp_path / "cache"), str(tmp_path / "ledger")
        cold = run_scenario("smoke", cache_dir=cache, ledger_dir=ledgers)
        with open(cold.cache_path, "rb") as fh:
            reference = fh.read()
        with open(cold.ledger_path, "rb") as fh:
            full = fh.read()
        lines = full.splitlines(keepends=True)
        assert [json.loads(line)["event"] for line in lines] == (
            ["run_started"] + ["point_started", "point_finished"] * 4 + ["run_finished"]
        )
        ends = set()  # offsets at which a cut leaves only whole lines
        for line in lines:
            ends.add(len(line) + max(ends, default=0))

        for cut in range(len(full) + 1):
            with open(cold.ledger_path, "wb") as fh:
                fh.write(full[:cut])
            if os.path.exists(cold.cache_path):
                os.remove(cold.cache_path)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if cut < len(lines[0]):  # the header itself is torn
                    with pytest.raises(ReproError, match="run_started"):
                        replay_ledger(cold.ledger_path)
                    continue
                state = replay_ledger(cold.ledger_path)
                # a record counts once its newline is on disk, not before
                assert state.torn_lines == len(caught) == int(cut not in ends), cut
                assert len(state.finished) == (full[:cut].count(b"\n") - 1) // 2, cut
                resumed = resume_run(cold.run_id, ledger_dir=ledgers, cache_dir=cache)
            assert resumed.resumed_points == 4 - len(state.finished), cut
            with open(resumed.cache_path, "rb") as fh:
                assert fh.read() == reference, cut
            # and the repaired ledger is whole again
            assert replay_ledger(cold.ledger_path).run_finished


#: Any JSON value, small.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
EVENTS = ("run_started", "point_started", "point_finished", "point_failed", "run_finished")
RECORDS = st.dictionaries(
    st.sampled_from(("index", "result", "sha256", "error", "schema")) | st.text(max_size=4),
    JSON,
    max_size=4,
).flatmap(
    lambda fields: (st.sampled_from(EVENTS) | JSON).map(lambda event: {**fields, "event": event})
)
HEADER_FIELDS = ("scenario", "key", "n_points", "replications", "points", "run")


class TestHostileRecords:
    """Whatever JSON follows a valid header, replay returns a state or
    refuses with one line (``ReproError``), and ``list_runs`` skips a
    file it cannot use instead of raising."""

    @staticmethod
    def _hostile_ledger(ledger_dir, header_edits, records) -> str:
        spec = get_scenario("smoke")
        with LedgerWriter.start(ledger_dir, spec) as writer:
            path = writer.path
        with open(path, "r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        for name, value in header_edits.items():
            if value is _DROP:
                header.pop(name, None)
            else:
                header[name] = value
        with open(path, "w", encoding="utf-8") as fh:
            for record in [header] + records:
                fh.write(json.dumps(record) + "\n")
        return path

    @given(
        data=st.data(),
        records=st.lists(RECORDS, max_size=6),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_replay_refuses_in_one_line_and_listing_never_raises(
        self, tmp_path, data, records
    ):
        edits = data.draw(
            st.dictionaries(st.sampled_from(HEADER_FIELDS), JSON | st.just(_DROP), max_size=2)
        )
        ledger_dir = str(tmp_path / data.draw(st.uuids()).hex)
        path = self._hostile_ledger(ledger_dir, edits, records)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LedgerWarning)
            try:
                state = replay_ledger(path)
            except ReproError as exc:
                assert "\n" not in str(exc)
                state = None
            listed = list_runs(ledger_dir)
        assert [s.path for s in listed] == ([path] if state is not None else [])

    @pytest.mark.parametrize(
        "edits, records, line",
        [
            ({}, [{"event": "point_started", "index": "x"}], 2),
            ({}, [{"event": "point_started", "index": 0}, {"event": "point_failed"}], 3),
            ({}, [{"event": "point_finished", "index": 1.5, "result": {}}], 2),
            ({}, [{"event": "point_failed", "index": -1}], 2),
            ({}, [{"event": "point_started", "index": True}], 2),
            ({"n_points": "four"}, [], 1),
            ({"scenario": _DROP}, [], 1),
            ({"replications": [2]}, [], 1),
            ({"points": {"0": {}}}, [], 1),
        ],
    )
    def test_a_malformed_record_is_corrupt_at_its_line(self, tmp_path, edits, records, line):
        path = self._hostile_ledger(str(tmp_path), edits, records)
        with pytest.raises(ReproError, match=f"is corrupt at line {line}: "):
            replay_ledger(path)
        with pytest.warns(LedgerWarning, match="skipping unusable sweep ledger"):
            assert list_runs(str(tmp_path)) == []
