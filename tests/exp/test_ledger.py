"""Unit tests for the durable sweep ledger: writer, replay, resume.

The crash-injection (subprocess SIGKILL) coverage lives in
``test_ledger_crash.py``; scenario-wide property round-trips in
``test_ledger_props.py``.  This file pins the in-process contracts:
record schema, replay semantics, identity checks, and the
worker-failure -> point_failed -> resume-retries loop.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.errors import ReproError, SpecError
from repro.exp import (
    LEDGER_SCHEMA,
    LedgerWarning,
    LedgerWriter,
    get_scenario,
    ledger_path,
    list_runs,
    replay_ledger,
    resume_run,
    run_scenario,
)
from repro.exp.ledger import result_digest
from repro.exp.points import RUNNER_VERSIONS, RUNNERS
from repro.exp.scenario import _REGISTRY, with_replications
from repro.util.jsonio import compact_dumps


def fake_result(index: int) -> dict:
    return {"ok": True, "makespan": 100.0 + index}


class TestRunId:
    def test_format_is_name_plus_key_prefix(self):
        spec = get_scenario("smoke")
        assert spec.run_id() == f"smoke-{spec.key()[:12]}"

    def test_replications_change_the_run_id(self):
        spec = get_scenario("smoke")
        assert with_replications(spec, 3).run_id() != spec.run_id()

    def test_stable_across_calls(self):
        assert get_scenario("smoke").run_id() == get_scenario("smoke").run_id()


class TestWriterReplayRoundTrip:
    def test_header_pins_identity_and_points(self, tmp_path):
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            path = writer.path
        state = replay_ledger(path)
        assert state.run_id == spec.run_id()
        assert state.scenario == "smoke"
        assert state.key == spec.key()
        assert state.replications == 1
        assert state.n_points == 4
        assert [p["index"] for p in state.points] == [0, 1, 2, 3]
        # machine scenarios embed the fully-expanded canonical RunSpec
        # per point, so the ledger alone pins what each point means
        assert all("runspec" in p for p in state.points)
        assert state.unfinished() == [0, 1, 2, 3]
        assert state.status == "resumable"

    def test_point_lifecycle(self, tmp_path):
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            writer.point_started(0)
            writer.point_finished(0, fake_result(0))
            writer.point_started(2)
            writer.point_finished(2, fake_result(2))
            path = writer.path
        state = replay_ledger(path)
        assert state.finished == {0, 2}
        assert state.results == {0: fake_result(0), 2: fake_result(2)}
        assert state.unfinished() == [1, 3]
        assert state.progress() == 0.5
        assert not state.run_finished

    def test_run_finished_marks_complete(self, tmp_path):
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            for i in range(4):
                writer.point_finished(i, fake_result(i))
            writer.run_finished("ab" * 32)
            path = writer.path
        state = replay_ledger(path)
        assert state.complete and state.status == "complete"
        assert state.run_finished and state.sweep_sha256 == "ab" * 32
        assert state.summary_doc()["progress"] == 1.0

    def test_duplicate_point_finished_is_idempotent(self, tmp_path):
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            writer.point_finished(1, fake_result(1))
            writer.point_finished(1, {"ok": True, "makespan": -1.0})
            path = writer.path
        state = replay_ledger(path)
        # first digest-verified record wins
        assert state.results[1] == fake_result(1)
        assert state.unfinished() == [0, 2, 3]

    def test_later_finish_clears_earlier_failure(self, tmp_path):
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            writer.point_failed(3, "ValueError: boom")
            writer.point_finished(3, fake_result(3))
            path = writer.path
        state = replay_ledger(path)
        assert state.failed == {}
        assert 3 in state.finished

    def test_digest_mismatch_degrades_to_unfinished(self, tmp_path):
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            writer.append(
                {
                    "event": "point_finished",
                    "index": 0,
                    "sha256": "0" * 64,
                    "result": fake_result(0),
                }
            )
            path = writer.path
        with pytest.warns(LedgerWarning, match="sha256"):
            state = replay_ledger(path)
        assert 0 in state.unfinished()

    def test_unknown_event_warned_and_skipped(self, tmp_path):
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            writer.append({"event": "from_the_future", "index": 0})
            writer.point_finished(0, fake_result(0))
            path = writer.path
        with pytest.warns(LedgerWarning, match="unknown event"):
            state = replay_ledger(path)
        assert 0 in state.finished


class TestTornAndCorrupt:
    def _ledger_with_tail(self, tmp_path, tail: str) -> str:
        spec = get_scenario("smoke")
        with LedgerWriter.start(str(tmp_path), spec) as writer:
            writer.point_finished(0, fake_result(0))
            path = writer.path
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(tail)
        return path

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        path = self._ledger_with_tail(tmp_path, '{"event":"point_fini')
        with pytest.warns(LedgerWarning, match="torn final line"):
            state = replay_ledger(path)
        assert state.torn_lines == 1
        assert state.results == {0: fake_result(0)}

    def test_complete_record_without_its_newline_is_torn(self, tmp_path):
        # reopen() truncates an unterminated tail before it appends, so
        # replay must not count one either, even when it parses
        record = {
            "event": "point_finished",
            "index": 1,
            "sha256": result_digest(fake_result(1)),
            "result": fake_result(1),
        }
        path = self._ledger_with_tail(tmp_path, compact_dumps(record))
        with pytest.warns(LedgerWarning, match="torn final line"):
            state = replay_ledger(path)
        assert state.torn_lines == 1 and sorted(state.finished) == [0]
        with LedgerWriter.reopen(path) as writer:
            writer.point_started(1)
        assert replay_ledger(path).finished == state.finished

    def test_mid_file_corruption_refused(self, tmp_path):
        path = self._ledger_with_tail(tmp_path, "garbage, not json\n")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event":"point_started","index":1}\n')
        with pytest.raises(ReproError, match="corrupt at line"):
            replay_ledger(path)

    def test_headerless_ledger_refused(self, tmp_path):
        path = tmp_path / "lost-000000000000.jsonl"
        path.write_text('{"event":"point_started","index":0}\n')
        with pytest.raises(ReproError, match="run_started"):
            replay_ledger(str(path))

    def test_foreign_schema_refused(self, tmp_path):
        path = tmp_path / "alien-000000000000.jsonl"
        path.write_text(
            json.dumps({"event": "run_started", "schema": "alien/9"}) + "\n"
        )
        with pytest.raises(ReproError, match="schema"):
            replay_ledger(str(path))

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = self._ledger_with_tail(tmp_path, '{"event":"torn')
        with LedgerWriter.reopen(path) as writer:
            writer.point_finished(1, fake_result(1))
        # the torn tail must not survive as mid-file garbage
        state = replay_ledger(path)
        assert state.torn_lines == 0
        assert state.results == {0: fake_result(0), 1: fake_result(1)}


class TestListRuns:
    def test_lists_sorted_and_skips_unusable(self, tmp_path):
        run_scenario("smoke", ledger_dir=str(tmp_path))
        (tmp_path / "aaa-broken.jsonl").write_text("not json\nstill not\n")
        (tmp_path / "ignored.txt").write_text("not a ledger")
        with pytest.warns(LedgerWarning, match="unusable"):
            states = list_runs(str(tmp_path))
        assert [s.scenario for s in states] == ["smoke"]
        assert states[0].complete

    def test_missing_dir_is_empty(self, tmp_path):
        assert list_runs(str(tmp_path / "nope")) == []


class TestLedgeredRunScenario:
    def test_ledgered_cache_byte_identical_to_ledgerless(self, tmp_path):
        plain = run_scenario("smoke", cache_dir=str(tmp_path / "plain"))
        ledgered = run_scenario(
            "smoke",
            cache_dir=str(tmp_path / "led"),
            ledger_dir=str(tmp_path / "led" / "ledger"),
        )
        with open(plain.cache_path, "rb") as a, open(ledgered.cache_path, "rb") as b:
            assert a.read() == b.read()
        assert ledgered.run_id == get_scenario("smoke").run_id()
        assert os.path.exists(ledgered.ledger_path)
        assert plain.run_id is None and plain.ledger_path is None

    def test_cache_hit_writes_no_ledger(self, tmp_path):
        run_scenario("smoke", cache_dir=str(tmp_path))
        ledger_dir = tmp_path / "ledger"
        hit = run_scenario(
            "smoke", cache_dir=str(tmp_path), ledger_dir=str(ledger_dir)
        )
        assert hit.cache_hit
        assert not ledger_dir.exists()

    def test_unwritable_ledger_dir_one_line_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        with pytest.raises(ReproError, match="cannot write sweep ledger"):
            run_scenario("smoke", ledger_dir=str(blocker / "ledger"))


def interrupted_ledger(tmp_path) -> str:
    """A smoke ledger with points 0 and 2 finished for real."""
    spec = get_scenario("smoke")
    full = run_scenario("smoke")
    with LedgerWriter.start(str(tmp_path / "ledger"), spec) as writer:
        for i in (0, 2):
            writer.point_started(i)
            writer.point_finished(i, full.points[i]["result"])
    return spec.run_id()


class TestFsyncBudget:
    """Only commitments are synced: the header, each ``point_finished``
    or ``point_failed``, and ``run_finished``.  ``point_started`` rides
    on the sync of the commitment that follows it."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
        return calls

    @pytest.mark.parametrize("replications,workers", [(1, 1), (3, 1), (1, 2)])
    def test_n_point_sweep_syncs_n_plus_two(
        self, tmp_path, fsyncs, replications, workers
    ):
        spec = with_replications(get_scenario("smoke"), replications)
        sweep = run_scenario(
            spec, workers=workers, cache_dir=str(tmp_path),
            ledger_dir=str(tmp_path / "ledger"),
        )
        n = len(sweep.points)
        assert n == 4 * replications
        assert len(fsyncs) == n + 2
        with open(sweep.ledger_path, "rb") as fh:
            assert fh.read().count(b"\n") == 2 * n + 2  # every record still written

    def test_resume_of_k_points_syncs_k_plus_one(self, tmp_path, fsyncs):
        run_id = interrupted_ledger(tmp_path)  # 2 of 4 finished
        fsyncs.clear()
        resumed = resume_run(run_id, ledger_dir=str(tmp_path / "ledger"))
        assert resumed.resumed_points == 2
        assert len(fsyncs) == 2 + 1

    def test_failed_point_is_a_commitment(self, tmp_path, fsyncs, monkeypatch):
        def always_fails(params):
            raise ValueError("injected point failure")

        monkeypatch.setitem(RUNNERS, "machine", always_fails)
        with pytest.raises(ReproError, match="4 point"):
            run_scenario("smoke", ledger_dir=str(tmp_path / "ledger"))
        assert len(fsyncs) == 1 + 4  # header + four point_failed, no run_finished


class TestResume:
    def test_resume_completes_byte_identical(self, tmp_path):
        run_id = interrupted_ledger(tmp_path)
        reference = run_scenario("smoke", cache_dir=str(tmp_path / "ref"))
        resumed = resume_run(
            run_id,
            ledger_dir=str(tmp_path / "ledger"),
            cache_dir=str(tmp_path / "cache"),
        )
        assert resumed.resumed_points == 2
        with open(reference.cache_path, "rb") as a, open(resumed.cache_path, "rb") as b:
            assert a.read() == b.read()

    def test_resume_complete_run_is_a_no_op(self, tmp_path):
        run_scenario(
            "smoke",
            cache_dir=str(tmp_path),
            ledger_dir=str(tmp_path / "ledger"),
        )
        again = resume_run(
            get_scenario("smoke").run_id(),
            ledger_dir=str(tmp_path / "ledger"),
            cache_dir=str(tmp_path),
        )
        assert again.resumed_points == 0
        assert again.to_json() == run_scenario("smoke").to_json()

    def test_unknown_run_id_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="no ledger for run"):
            resume_run("nope-123456789abc", ledger_dir=str(tmp_path))

    def test_identity_drift_refused(self, tmp_path, monkeypatch):
        run_id = interrupted_ledger(tmp_path)
        # a runner-version bump changes the identity; a fresh copy of the
        # spec keys itself again
        monkeypatch.setitem(RUNNER_VERSIONS, "machine", RUNNER_VERSIONS["machine"] + 1)
        monkeypatch.setitem(_REGISTRY, "smoke", dataclasses.replace(get_scenario("smoke")))
        with pytest.raises(SpecError, match="re-run instead of resuming"):
            resume_run(run_id, ledger_dir=str(tmp_path / "ledger"))

    def test_unregistered_scenario_refused(self, tmp_path, monkeypatch):
        run_id = interrupted_ledger(tmp_path)
        monkeypatch.delitem(_REGISTRY, "smoke")
        with pytest.raises(SpecError, match="no longer registered"):
            resume_run(run_id, ledger_dir=str(tmp_path / "ledger"))


class TestWorkerFailure:
    """A point raising mid-sweep is journaled failed; resume retries it."""

    def test_failure_journaled_others_complete_then_resume_retries(
        self, tmp_path, monkeypatch
    ):
        spec = get_scenario("smoke")
        real_machine = RUNNERS["machine"]

        def flaky(params):
            if params["policy"] == "splice" and params["fault_frac"] == 0.8:
                raise ValueError("injected point failure")
            return real_machine(params)

        # serial on purpose: monkeypatched RUNNERS do not propagate to
        # spawned pool workers
        monkeypatch.setitem(RUNNERS, "machine", flaky)
        with pytest.raises(ReproError, match="1 point\\(s\\) failed \\[3\\]"):
            run_scenario(
                "smoke", workers=1, ledger_dir=str(tmp_path / "ledger")
            )
        state = replay_ledger(ledger_path(str(tmp_path / "ledger"), spec.run_id()))
        assert state.failed == {3: "ValueError: injected point failure"}
        assert sorted(state.finished) == [0, 1, 2]
        assert state.unfinished() == [3]

        monkeypatch.setitem(RUNNERS, "machine", real_machine)
        resumed = resume_run(
            spec.run_id(),
            ledger_dir=str(tmp_path / "ledger"),
            cache_dir=str(tmp_path / "cache"),
        )
        assert resumed.resumed_points == 1
        reference = run_scenario("smoke", cache_dir=str(tmp_path / "ref"))
        with open(reference.cache_path, "rb") as a, open(resumed.cache_path, "rb") as b:
            assert a.read() == b.read()

    def test_without_ledger_first_exception_propagates(self, monkeypatch):
        def always_fails(params):
            raise ValueError("injected point failure")

        monkeypatch.setitem(RUNNERS, "machine", always_fails)
        with pytest.raises(ValueError, match="injected point failure"):
            run_scenario("smoke", workers=1)
