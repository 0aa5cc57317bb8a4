"""A broken check drives ``fail_ratio`` above zero and the exit code non-zero."""

import importlib.util
import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from benchlib import workloads  # noqa: E402
from benchlib.spans import Spans  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_session(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_REPLICATIONS", 2)
    monkeypatch.setattr(workloads, "N_BOOT", 20)
    return workloads.SweepSession(seed=0)


def test_sweep_session_passes_its_own_checks(monkeypatch, tmp_path):
    rep = _small_session(monkeypatch).rep(Spans(enabled=False), str(tmp_path))
    assert rep.failures == []
    assert rep.attempted == 8 + 4 + 7  # points, resumed points, verbs
    assert rep.counts["exp.runner.cache_hit_ratio"] == 0.75


def test_corrupted_resumed_cache_is_a_counted_failure(monkeypatch, tmp_path):
    import repro.exp

    real_resume = repro.exp.resume_run

    def corrupting_resume(*args, **kwargs):
        sweep = real_resume(*args, **kwargs)
        with open(sweep.cache_path, "a") as fh:
            fh.write(" ")
        return sweep

    monkeypatch.setattr(repro.exp, "resume_run", corrupting_resume)
    rep = _small_session(monkeypatch).rep(Spans(enabled=False), str(tmp_path))
    assert any("cache file differs" in line for line in rep.failures)


def test_a_failed_check_fails_the_run(monkeypatch, tmp_path, capsys):
    run = _load_run()

    def child(workload, seed, seconds, trace, *flags, failures=()):
        return {
            "setup_s": 0.5, "warmup_s": 2.0, "rep_times_s": [2.0, 2.1], "rss_mb": 90.0,
            "sim": {"sim_useful_ratio": 1.0, "sim_msgs_per_task": 2.5},
            "attempted": 9, "failures": list(failures), "digest": "d",
        }

    out = str(tmp_path / "result.json")
    argv = ["--workload", "recovery-mix", "--trace", "0", "--out", out]
    monkeypatch.setattr(run, "_spawn", child)
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 0

    monkeypatch.setattr(
        run, "_spawn", lambda *a: child(*a, failures=["rep 1: resumed cache differs"])
    )
    assert run.main(argv) == 1
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["correct"] is False and summary["failed"] == run.ROUNDS
    with open(out) as fh:
        assert json.load(fh)["end_to_end"]["recovery-mix"]["failures"]
