"""Crash-injection harness for the sweep ledger: real SIGKILLs.

Each test runs ``repro exp run smoke`` in a subprocess and kills it —
either deterministically mid-ledger-append via the
``REPRO_LEDGER_CRASH_AFTER`` hook (the writer SIGKILLs itself halfway
through writing a record, leaving a genuinely torn line), or externally
while ``REPRO_LEDGER_SLOW_APPEND`` paces the sweep wide enough for an
outside ``SIGKILL`` to land.  The contract under test is the tentpole
guarantee: resume completes the run and the final sweep JSON is
**byte-identical** to an uninterrupted run.

The serial smoke ledger stream is 10 records — ``run_started``, four
``point_started``/``point_finished`` pairs, ``run_finished`` — so
crash positions 1..9 cover every interior point of the stream.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ReproError
from repro.exp import get_scenario, ledger_path, list_runs, resume_run, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

RUN_ID = get_scenario("smoke").run_id()


def cli_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("REPRO_LEDGER_CRASH_AFTER", None)
    env.pop("REPRO_LEDGER_SLOW_APPEND", None)
    env.update(extra)
    return env


def run_cli(args, **extra_env):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=cli_env(**extra_env),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def reference_bytes(tmp_path_factory) -> bytes:
    """Canonical smoke sweep JSON from an uninterrupted run."""
    sweep = run_scenario(
        "smoke", cache_dir=str(tmp_path_factory.mktemp("reference"))
    )
    with open(sweep.cache_path, "rb") as fh:
        return fh.read()


def cache_bytes(cache_dir: str) -> bytes:
    spec = get_scenario("smoke")
    path = os.path.join(cache_dir, "smoke", f"{spec.key()}.json")
    with open(path, "rb") as fh:
        return fh.read()


class TestCrashAfterHook:
    @pytest.mark.parametrize("crash_after", list(range(1, 10)))
    def test_resume_is_byte_identical_from_every_crash_point(
        self, tmp_path, reference_bytes, crash_after
    ):
        cache = str(tmp_path / "cache")
        proc = run_cli(
            ["exp", "run", "smoke", "--cache-dir", cache],
            REPRO_LEDGER_CRASH_AFTER=str(crash_after),
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        path = ledger_path(os.path.join(cache, "ledger"), RUN_ID)
        with open(path, "rb") as fh:
            raw = fh.read()
        # the crash hook dies halfway through a write: a real torn tail
        assert raw and not raw.endswith(b"\n")
        # the hook counts every record, the unsynced point_started too
        assert raw.count(b"\n") == crash_after

        resumed = resume_run(
            RUN_ID, ledger_dir=os.path.join(cache, "ledger"), cache_dir=cache
        )
        # point i's finished record is append 2i+2, so crashing after n
        # clean appends leaves (n-1)//2 points durably finished
        assert resumed.resumed_points == 4 - (crash_after - 1) // 2
        assert cache_bytes(cache) == reference_bytes

    def test_torn_run_finished_publishes_no_cache(self, tmp_path, reference_bytes):
        # crash position 9 tears run_finished, the last record: the cache
        # document has been streamed into its temp file, but the rename
        # waits for the ledger record, so no cache file is visible
        cache = str(tmp_path / "cache")
        proc = run_cli(
            ["exp", "run", "smoke", "--cache-dir", cache],
            REPRO_LEDGER_CRASH_AFTER="9",
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        sweep_dir = os.path.join(cache, "smoke")
        [leftover] = os.listdir(sweep_dir)
        assert leftover.startswith(".tmp-") and leftover.endswith(".json")
        with open(os.path.join(sweep_dir, leftover), "rb") as fh:
            assert fh.read() == reference_bytes  # whole, yet never served

        # a cache lookup reads only <key>.json, so the leftover is a miss
        probe = str(tmp_path / "probe")
        shutil.copytree(cache, probe)
        assert not run_scenario("smoke", cache_dir=probe).cache_hit

        resumed = resume_run(
            RUN_ID, ledger_dir=os.path.join(cache, "ledger"), cache_dir=cache
        )
        assert resumed.resumed_points == 0
        assert cache_bytes(cache) == reference_bytes

    def test_crash_in_header_leaves_unresumable_ledger(self, tmp_path):
        cache = str(tmp_path / "cache")
        proc = run_cli(
            ["exp", "run", "smoke", "--cache-dir", cache],
            REPRO_LEDGER_CRASH_AFTER="0",
        )
        assert proc.returncode == -signal.SIGKILL
        # the only record was torn, so there is no usable header: the
        # run cannot be resumed (re-run it instead) and listings skip it
        with pytest.raises(ReproError, match="run_started"):
            resume_run(RUN_ID, ledger_dir=os.path.join(cache, "ledger"))
        with pytest.warns(Warning, match="unusable"):
            assert list_runs(os.path.join(cache, "ledger")) == []

    def test_crash_position_beyond_stream_means_no_crash(
        self, tmp_path, reference_bytes
    ):
        cache = str(tmp_path / "cache")
        proc = run_cli(
            ["exp", "run", "smoke", "--cache-dir", cache],
            REPRO_LEDGER_CRASH_AFTER="99",
        )
        assert proc.returncode == 0, proc.stderr
        assert cache_bytes(cache) == reference_bytes

    def test_resume_via_cli_after_crash(self, tmp_path, reference_bytes):
        cache = str(tmp_path / "cache")
        proc = run_cli(
            ["exp", "run", "smoke", "--cache-dir", cache],
            REPRO_LEDGER_CRASH_AFTER="5",
        )
        assert proc.returncode == -signal.SIGKILL

        runs = run_cli(["exp", "runs", "--cache-dir", cache])
        assert runs.returncode == 0
        assert RUN_ID in runs.stdout and "resumable" in runs.stdout

        resumed = run_cli(["exp", "resume", RUN_ID, "--cache-dir", cache])
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed 2 point(s)" in resumed.stdout
        assert cache_bytes(cache) == reference_bytes

        # and the repaired ledger now reads as complete
        runs = run_cli(["exp", "runs", "--cache-dir", cache])
        assert "complete" in runs.stdout


class TestExternalSigkill:
    def test_kill_from_outside_mid_sweep(self, tmp_path, reference_bytes):
        """An asynchronous SIGKILL (no cooperation from the victim).

        ``REPRO_LEDGER_SLOW_APPEND`` paces each append so the window is
        wide; the killer polls the ledger and fires once the run is
        mid-sweep.  If the scheduler still lets the run finish first,
        the uninterrupted path is asserted instead — either way the
        final bytes must match the reference.
        """
        cache = str(tmp_path / "cache")
        path = ledger_path(os.path.join(cache, "ledger"), RUN_ID)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "exp", "run", "smoke",
             "--cache-dir", cache],
            env=cli_env(REPRO_LEDGER_SLOW_APPEND="0.2"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and proc.poll() is None:
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        if fh.read().count(b"\n") >= 3:
                            break
                time.sleep(0.05)
            killed = proc.poll() is None
            if killed:
                proc.kill()
            returncode = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on timeout
                proc.kill()
                proc.wait()

        if killed:
            assert returncode == -signal.SIGKILL
            resumed = resume_run(
                RUN_ID, ledger_dir=os.path.join(cache, "ledger"), cache_dir=cache
            )
            assert resumed.resumed_points >= 1
        else:  # pragma: no cover - scheduler let the sweep finish
            assert returncode == 0
        assert cache_bytes(cache) == reference_bytes
