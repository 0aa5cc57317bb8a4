"""Coverage-signature tests: the determinism contract and regime pins.

The signature is the feedback signal of the coverage-guided searcher,
so its whole value is stability: the same run must fingerprint
identically no matter how the trace was collected, which process
computed it, or what order dictionaries happened to iterate in — and
genuinely different recovery regimes must fingerprint differently.
Both halves are pinned here against the documented weak-recovery
boundary regimes (``tests/faults/test_weak_recovery_regression.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.api import Experiment
from repro.api.session import execute
from repro.check import (
    ORACLE_NAMES,
    CheckConfig,
    build_context,
    check_spec,
    evaluate_context,
    signature_from_context,
)
from repro.check.coverage import bucket_count, bucket_margin

BASE = Experiment.workload("balanced:4:2:30").processors(4).seed(0)

#: The two pinned boundary regimes: a symmetric false positive that
#: classifies weak, and the one-sided notified-drop regime that strands
#: rollback outright.
WEAK = BASE.policy("rollback").nemesis(
    "partition:start=0.3,dur=0.25,group=0-1"
).build()
VIOLATION = BASE.policy("rollback").nemesis(
    "chaos:drop=0.15,notify=1,start=0.1,dur=0.6"
).build()


def _signature(spec, config=None):
    config = config or CheckConfig()
    handle = execute(spec, collect_trace=True)
    ctx = build_context(handle, config)
    return signature_from_context(ctx, evaluate_context(ctx, config))


class TestSignatureStability:
    def test_identical_across_repeated_executions(self):
        a = _signature(WEAK)
        b = _signature(WEAK)
        assert a == b
        assert a.key() == b.key()
        assert a.to_json() == b.to_json()

    def test_identical_trace_on_vs_trace_forced(self):
        # explicit collect_trace=True vs check_spec's forced tracing
        direct = _signature(VIOLATION)
        handle, report = check_spec(VIOLATION)
        forced = signature_from_context(
            build_context(handle, CheckConfig()), report
        )
        assert direct == forced and direct.key() == forced.key()

    def test_stable_across_process_restarts(self):
        # no hash()/dict-order leaks: a fresh interpreter with a
        # different PYTHONHASHSEED must compute the byte-identical key
        local = _signature(WEAK).key()
        script = (
            "from tests.check.test_coverage import WEAK, _signature;"
            "print(_signature(WEAK).key())"
        )
        for hashseed in ("0", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            assert out.stdout.strip() == local, hashseed

    def test_set_valued_fields_are_canonically_ordered(self):
        sig = _signature(VIOLATION)
        assert sig.reasons == tuple(sorted(sig.reasons))
        assert tuple(o for o, _ in sig.statuses) == ORACLE_NAMES


class TestSignatureDistinguishesRegimes:
    def test_weak_and_violation_regimes_fingerprint_differently(self):
        weak = _signature(WEAK)
        violation = _signature(VIOLATION)
        assert weak != violation
        assert weak.key() != violation.key()
        # and for the documented reasons: the weak run completes with a
        # weak verdict, the one-sided regime strands the run
        assert weak.completed and not violation.completed
        assert ("weak-recovery", "weak") in weak.statuses
        assert ("weak-recovery", "violation") in violation.statuses

    def test_key_is_a_pure_function_of_the_fields(self):
        sig = _signature(WEAK)
        assert sig.key() == sig.key()
        assert f"m{sig.margin}" in sig.key()
        assert f"c{int(sig.completed)}" in sig.key()


class TestRecoveryStats:
    def test_weak_regime_opens_and_closes_windows(self):
        handle = execute(WEAK, collect_trace=True)
        recovery = build_context(handle, CheckConfig()).recovery
        assert recovery.reissues > 0
        assert recovery.still_open == ()  # the run recovered and completed
        assert 0.0 < recovery.worst_ratio

    def test_stranded_regime_leaves_windows_open(self):
        handle = execute(VIOLATION, collect_trace=True)
        recovery = build_context(handle, CheckConfig()).recovery
        assert recovery.still_open
        # open windows are still measured — to the end of the run
        assert recovery.worst_ratio > 0.0
        assert recovery.max_overlap > 1


class TestBucketGrids:
    def test_count_buckets_are_exact_then_log(self):
        assert [bucket_count(n) for n in (0, 1, 2, 3)] == [0, 1, 2, 3]
        assert bucket_count(4) == bucket_count(7) == 4
        assert bucket_count(8) == bucket_count(15) == 5
        assert bucket_count(128) == bucket_count(10**6) == 9

    def test_margin_buckets_on_quarter_grid(self):
        assert bucket_margin(0.0) == 0
        assert bucket_margin(0.1) == 0
        assert bucket_margin(0.25) == 1
        assert bucket_margin(1.0) == 4
        assert bucket_margin(1.12) == 4
        assert bucket_margin(10**9) == 40  # capped
