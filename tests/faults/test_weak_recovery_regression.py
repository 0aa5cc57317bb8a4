"""Regression: the documented weak-recovery regimes, as oracle verdicts.

``docs/FAULTS.md`` ("Recoverability boundaries") makes two informal
claims about false-positive failure detections:

1. A **symmetric** false positive (a healing partition: both sides
   write each other off) is safe — each side regenerates the other's
   regions and determinacy absorbs post-heal duplicates.
2. A **one-sided** false positive (notified chaos drops: only the
   sender applies the "unreachable = faulty" inference) exhibits
   weak-recovery semantics and can strand a parent forever under
   rollback — the Fabbretti et al. regime.

This suite turns both claims into executable ``weak-recovery`` oracle
verdicts: the partition regime must classify as **weak, not
violating**, with the run still correct; the one-sided regime must
classify as a **violation** on a seed where it strands the run.

``STALLS`` pins one such run under every policy spelling: each stalls,
with its makespan and full verdict map fixed, so a cure of the one-sided
write-off shows as a diff of that table.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment
from repro.check import check_spec

BASE = Experiment.workload("balanced:4:2:30").processors(4).seed(0)
#: policy -> the makespan at which ``chaos:drop=0.04,notify=1`` stalls it
STALLS = {
    "none": 354.0,
    "rollback": 628.0,
    "splice": 858.0,
    "incremental": 628.0,
    "incremental:persist=hybrid": 628.0,
    "reversible": 628.0,
    "replicated": 808.0,
}


def _check(policy, nemesis):
    return check_spec(BASE.policy(policy).nemesis(nemesis).build())


class TestSymmetricFalsePositivesAreWeakNotViolating:
    """Claim 1: the partition-heal regime is a documented degradation."""

    def test_rollback_partition_classifies_weak(self):
        handle, report = _check(
            "rollback", "partition:start=0.3,dur=0.25,group=0-1"
        )
        verdict = report.verdict("weak-recovery")
        assert verdict.status == "weak"
        assert "symmetric" in verdict.detail
        # weak is not a violation: the whole report stays ok and the
        # run still agrees with the sequential oracle
        assert report.ok and handle.result.correct
        assert report.verdict("result-agreement").status == "pass"

    def test_splice_partition_classifies_weak_too(self):
        _, report = _check("splice", "partition:start=0.3,dur=0.25,group=0-1")
        assert report.verdict("weak-recovery").status == "weak"
        assert report.ok


class TestOneSidedFalsePositivesViolate:
    """Claim 2: the notified one-sided drop regime strands rollback."""

    def test_notified_chaos_drops_violate_weak_recovery(self):
        handle, report = _check(
            "rollback", "chaos:drop=0.15,notify=1,start=0.1,dur=0.6"
        )
        verdict = report.verdict("weak-recovery")
        assert verdict.status == "violation"
        assert "one-sided" in verdict.detail
        # the stranding is visible end to end: the run stalls, so
        # result agreement and bounded recovery fall with it
        assert not handle.result.completed
        assert report.verdict("result-agreement").status == "violation"
        assert report.verdict("bounded-recovery").status == "violation"

    def test_the_violating_window_is_attached(self):
        _, report = _check(
            "rollback", "chaos:drop=0.15,notify=1,start=0.1,dur=0.6"
        )
        window = report.verdict("weak-recovery").window
        assert window is not None and window[0] < window[1]


class TestCompetingPoliciesAtTheBoundary:
    """The competing policies (docs/POLICIES.md) inherit the paper's
    detection model, so both boundary claims carry over unchanged —
    recovery style is orthogonal to detection quality.  What each
    competitor *does* guarantee at the boundary is pinned here."""

    def test_incremental_partition_classifies_weak_in_every_persist_mode(self):
        for persist in ("volatile", "durable", "hybrid"):
            handle, report = _check(
                f"incremental:persist={persist}",
                "partition:start=0.3,dur=0.25,group=0-1",
            )
            verdict = report.verdict("weak-recovery")
            assert verdict.status == "weak", persist
            assert "symmetric" in verdict.detail
            assert report.ok and handle.result.correct, persist
            # incremental repair never aborts a waiter, so the orphan
            # oracle holds by construction, not just vacuously
            assert report.verdict("no-orphan-commit").status == "pass"

    def test_reversible_partition_classifies_weak(self):
        handle, report = _check(
            "reversible", "partition:start=0.3,dur=0.25,group=0-1"
        )
        assert report.verdict("weak-recovery").status == "weak"
        assert report.ok and handle.result.correct

    def test_incremental_never_orphans_a_commit_even_when_stranded(self):
        handle, report = _check(
            "incremental", "chaos:drop=0.15,notify=1,start=0.1,dur=0.6"
        )
        # the one-sided boundary is unchanged: the run still strands
        assert report.verdict("weak-recovery").status == "violation"
        assert not handle.result.completed
        # ...but no waiter was aborted for pointing at a "dead" child,
        # so no completed task's commit is ever orphaned
        assert report.verdict("no-orphan-commit").status == "pass"

    @pytest.mark.parametrize("policy, makespan", sorted(STALLS.items()))
    def test_the_one_sided_write_off_stalls_every_policy(self, policy, makespan):
        # Pinned before the write-off is cured: the refusal lives in the
        # shared node protocol (Node.forward_result), so no recovery
        # style escapes it — replication included.  A cure shows as a
        # visible diff of this table.
        handle, report = _check(policy, "chaos:drop=0.04,notify=1")
        assert not handle.result.completed
        assert handle.result.makespan == makespan
        stranded = "pass" if policy in ("none", "replicated") else "violation"
        assert {v.oracle: v.status for v in report.verdicts} == {
            "result-agreement": "violation",
            "no-orphan-commit": "pass",
            "checkpoint-coverage": "pass",
            "causal-delivery": "pass",
            "bounded-recovery": stranded,
            "weak-recovery": "violation",
        }

    def test_reversible_unwind_preserves_causal_delivery(self):
        handle, report = _check(
            "reversible", "chaos:drop=0.15,notify=1,start=0.1,dur=0.6"
        )
        assert report.verdict("weak-recovery").status == "violation"
        # the unwind actually fired on this seed...
        unwound = [
            r for r in handle.result.trace.records if r.kind == "result_unwound"
        ]
        assert unwound
        # ...and the unwound child re-announced through the ordinary
        # spawn/result path: a fresh result_sent precedes every
        # replacement result_received, so causal delivery holds
        assert report.verdict("causal-delivery").status == "pass"
