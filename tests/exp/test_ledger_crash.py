"""Crash-injection harness for the sweep ledger: real SIGKILLs.

Each test runs ``repro exp run smoke`` in a subprocess under
``crash_harness.py`` and kills it — either deterministically
mid-ledger-append with ``--crash-after N`` (the wrapped writer SIGKILLs
its process halfway through writing a record, leaving a genuinely torn
line), or externally while ``--slow`` paces the sweep wide enough for an
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

HARNESS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "crash_harness.py")

RUN_ID = get_scenario("smoke").run_id()


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run_cli(args, *harness_args):
    """``repro ARGS`` in a subprocess; with ``harness_args``, under the
    crash harness."""
    command = [sys.executable, "-m", "repro"]
    if harness_args:
        command = [sys.executable, HARNESS, *harness_args, "--"]
    return subprocess.run(
        [*command, *args],
        env=cli_env(),
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


def ledger_bytes(path: str) -> bytes:
    """The ledger's bytes so far (none before the header is written)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


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
            "--crash-after", str(crash_after),
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        path = ledger_path(os.path.join(cache, "ledger"), RUN_ID)
        with open(path, "rb") as fh:
            raw = fh.read()
        # the harness dies halfway through a write: a real torn tail
        assert raw and not raw.endswith(b"\n")
        # it counts every record, the unsynced point_started too
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
            "--crash-after", "9",
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
            "--crash-after", "0",
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
            "--crash-after", "99",
        )
        assert proc.returncode == 0, proc.stderr
        assert cache_bytes(cache) == reference_bytes

    def test_resume_via_cli_after_crash(self, tmp_path, reference_bytes):
        cache = str(tmp_path / "cache")
        proc = run_cli(
            ["exp", "run", "smoke", "--cache-dir", cache],
            "--crash-after", "5",
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

        ``--slow`` paces each append so the window is wide; the killer
        polls the ledger and fires once the run is mid-sweep.  The kill
        must land: the sweep may not finish first.
        """
        cache = str(tmp_path / "cache")
        path = ledger_path(os.path.join(cache, "ledger"), RUN_ID)
        proc = subprocess.Popen(
            [sys.executable, HARNESS, "--slow", "0.2", "--",
             "exp", "run", "smoke", "--cache-dir", cache],
            env=cli_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while ledger_bytes(path).count(b"\n") < 3:
                assert proc.poll() is None, "the sweep ended before the kill"
                assert time.monotonic() < deadline, "no third ledger record in 60 s"
                time.sleep(0.05)
            proc.kill()
            assert proc.wait(timeout=60) == -signal.SIGKILL
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on a failed assert
                proc.kill()
                proc.wait()

        # the kill landed mid-sweep: no run_finished, no cache document
        assert b'"run_finished"' not in ledger_bytes(path)
        with pytest.raises(FileNotFoundError):
            cache_bytes(cache)
        resumed = resume_run(
            RUN_ID, ledger_dir=os.path.join(cache, "ledger"), cache_dir=cache
        )
        assert resumed.resumed_points >= 1
        assert cache_bytes(cache) == reference_bytes
