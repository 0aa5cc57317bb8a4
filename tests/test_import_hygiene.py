"""Simulating imports no numpy; only the report/bootstrap side does.

Each check runs in a fresh interpreter (this process imported numpy long
ago): ``import repro.api`` is the fixed cost in front of every CLI call
and every pool worker, and numpy was two thirds of it for scalar draws
the standard library now makes bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(script: str, cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_simulating_never_imports_numpy_and_reporting_does(tmp_path):
    done = run_python(
        """
        import sys
        import repro.api, repro.cli, repro.exp, repro.check
        assert "numpy" not in sys.modules, "import"

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

        from repro.report.driver import run_report
        report = run_report("smoke", cache_dir="cache", out_dir=None)
        assert report.markdown
        assert "numpy" in sys.modules, "report"
        print("ok")
        """,
        cwd=str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_report_verb_without_numpy_is_one_error_line(tmp_path):
    done = run_python(
        """
        import sys
        sys.modules["numpy"] = None  # what an uninstalled numpy looks like to import
        from repro.cli import main
        sys.exit(main(["report", "run", "smoke", "--cache-dir", "cache", "--out-dir", "out"]))
        """,
        cwd=str(tmp_path),
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.strip().splitlines()
    assert line.startswith("error:") and "repro[report]" in line
