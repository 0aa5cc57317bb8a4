"""Simulating imports no numpy, and neither does reporting until a
bootstrap draws; no process loads OpenSSL, and no serial sweep a process
pool.

Each check runs in a fresh interpreter (this process imported numpy long
ago): ``import repro.api`` is the fixed cost in front of every CLI call
and every pool worker, and numpy was two thirds of it for scalar draws
the standard library now makes bit for bit.  A report's summaries,
quartiles and every interval of a sample without spread are standard
library too, so numpy loads only when an interval resamples.  Every
digest comes from CPython's built-in SHA-256 and BLAKE2b, so ``_hashlib``
(and with it OpenSSL's libcrypto) never loads; ``hashlib`` is reached only
on an interpreter built without the built-in SHA-256, with the same digest.
A process pool (``multiprocessing``, ``pickle``, ``socket``, ``logging``)
loads only when a sweep fans out over ``workers > 1``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What a sweep over a process pool loads and a serial one must not.
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def run_python(script: str, cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_simulating_and_deterministic_reports_never_import_numpy(tmp_path):
    done = run_python(
        f"""
        import os, sys
        import repro.api, repro.cli, repro.exp, repro.check, repro.faults
        assert "numpy" not in sys.modules, "import"
        assert "_hashlib" not in sys.modules, "import: OpenSSL"

        def no_pool(where):
            loaded = [m for m in {POOL_MODULES!r} if m in sys.modules]
            assert not loaded, f"{{where}}: {{loaded}}"

        no_pool("import")

        from repro.api import Experiment
        from repro.check import search

        base = Experiment.workload("balanced:3:2:10").policy("splice").processors(4)
        closed = base.fault(0.4, 1).run()
        chaos = base.nemesis("chaos:drop=0.05,dup=0.05").run()
        arrivals = (
            Experiment.workload("balanced:3:2:10").policy("rollback").processors(4)
            .arrivals("poisson:rate=0.02,horizon=300").run()
        )
        assert closed.verified and chaos.verified and arrivals.verified
        assert arrivals.record["load"]["sojourn_p95"] is not None
        found = search("balanced:3:2:10", strategy="coverage", rounds=3, write=False)
        assert len(found.attempts) == 3
        assert "numpy" not in sys.modules, "simulate"
        assert "_hashlib" not in sys.modules, "simulate: OpenSSL"
        no_pool("simulate and search")

        from repro.report.driver import run_compare, run_report
        report = run_report("smoke", cache_dir="cache", out_dir=None)
        assert report.markdown
        assert "numpy" not in sys.modules, "smoke report"
        assert "_hashlib" not in sys.modules, "smoke report: OpenSSL"
        no_pool("smoke report")

        # what a sweep user does: cold ledgered sweep, crash, resume, report, compare
        from repro.exp import get_scenario, list_runs, resume_run, run_scenario, with_replications
        spec = with_replications(get_scenario("smoke"), 3)
        cold = run_scenario(spec, workers=1, cache_dir="session", ledger_dir="ledger")
        with open(cold.ledger_path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(cold.ledger_path, "wb") as fh:
            fh.writelines(lines[: len(lines) // 2])
        os.remove(cold.cache_path)
        resume_run(cold.run_id, ledger_dir="ledger", workers=1, cache_dir="session")
        assert [state.run_id for state in list_runs("ledger")] == [cold.run_id]
        no_pool("sweep, resume and list_runs")
        report = run_report("smoke", replications=3, cache_dir="session", out_dir="out")
        compare = run_compare(
            "smoke", axis="policy", replications=3, cache_dir="session", out_dir="out"
        )
        assert report.markdown and compare.markdown
        assert "numpy" not in sys.modules, "session"
        assert "_hashlib" not in sys.modules, "session: OpenSSL"
        no_pool("session")
        assert "repro.faults.mutants" not in sys.modules, "mutants"
        import repro.faults.mutants
        assert "_hashlib" not in sys.modules, "mutants: OpenSSL"
        print("ok")
        """,
        cwd=str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_a_pooled_sweep_loads_the_pool_and_writes_the_serial_bytes(tmp_path):
    done = run_python(
        f"""
        import sys
        from repro.exp import get_scenario, run_scenario, with_replications

        spec = with_replications(get_scenario("smoke"), 2)
        serial = run_scenario(spec, workers=1, cache_dir="serial")
        assert not [m for m in {POOL_MODULES!r} if m in sys.modules], "serial"
        pooled = run_scenario(spec, workers=2, cache_dir="pooled")
        assert all(m in sys.modules for m in {POOL_MODULES!r}), "pooled"
        with open(serial.cache_path, "rb") as a, open(pooled.cache_path, "rb") as b:
            assert a.read() == b.read(), "bytes"
        print("ok")
        """,
        cwd=str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_a_report_with_spread_imports_numpy(tmp_path):
    done = run_python(
        """
        import sys
        from repro.report.driver import run_report
        report = run_report("chaos-storm", replications=5, cache_dir="cache", out_dir=None)
        assert report.markdown
        assert "numpy" in sys.modules, "a spread report resamples"
        print("ok")
        """,
        cwd=str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["report", "run", "smoke"], 0),
        (["report", "run", "chaos-storm", "--replications", "5"], 2),
    ],
    ids=["smoke", "chaos-storm-x5"],
)
def test_report_verbs_without_numpy(tmp_path, argv, code):
    done = run_python(
        f"""
        import sys
        sys.modules["numpy"] = None  # what an uninstalled numpy looks like to import
        from repro.cli import main
        sys.exit(main({argv!r} + ["--cache-dir", "cache", "--out-dir", "out"]))
        """,
        cwd=str(tmp_path),
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 0:
        assert done.stderr == "" and "# " in done.stdout
    else:
        (line,) = done.stderr.strip().splitlines()
        assert line.startswith("error:") and "repro[report]" in line


def test_without_the_builtin_sha256_hashlib_gives_the_same_digests(tmp_path):
    # what a CPython built with --with-builtin-hashlib-hashes=blake2 looks like
    script = """
        import sys
        {block}
        from repro.exp.scenario import point_seed, stable_hash
        from repro.util.jsonio import sha256_hex
        print(sha256_hex("ab\\u00e9"), stable_hash({{"b": [1.5]}}), point_seed("smoke", {{"x": 1}}))
        print("_hashlib" in sys.modules)
    """
    builtin = run_python(script.format(block=""), cwd=str(tmp_path))
    fallback = run_python(
        script.format(block='sys.modules["_sha2"] = sys.modules["_sha256"] = None'),
        cwd=str(tmp_path),
    )
    assert builtin.returncode == 0 and fallback.returncode == 0, builtin.stderr + fallback.stderr
    digests, loaded = builtin.stdout.splitlines()
    assert fallback.stdout.splitlines() == [digests, "True"]
    assert loaded == "False"
