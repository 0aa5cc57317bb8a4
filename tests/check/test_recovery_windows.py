"""The one reissue -> close pairing, and the derivations computed once per run.

``recovery_windows`` replaced two hand-kept copies of the same loop (the
``bounded-recovery`` oracle and ``coverage.recovery_stats``); these cases
pin the rules both relied on, on synthetic traces, and that the two
consumers still agree on real runs.
"""

from __future__ import annotations

import importlib

import pytest

from repro.api import Experiment, NemesisSpec, execute
from repro.check import (
    CheckConfig,
    CheckContext,
    Evaluator,
    build_context,
    evaluate_context,
    recovery_stats,
    signature_from_context,
)
from repro.check.oracles import recovery_windows
from repro.core.stamps import LevelStamp
from repro.sim.trace import TraceRecord

#: ``repro.check.search`` the attribute is the function; this is the module.
search_module = importlib.import_module("repro.check.search")


def R(time, node, kind, **detail):
    return TraceRecord(time, node, kind, detail)


def ctx(records, completed=True, makespan=100.0, horizon=50.0, **kw):
    return CheckContext(
        records=tuple(records), completed=completed, verified=True,
        makespan=makespan, horizon=horizon, **kw,
    )


class TestPairing:
    def test_result_closes_its_window(self):
        total, overlap, closed, still_open = recovery_windows(ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=1),
            R(12.0, 0, "result_received", stamp="0.9", uid=1),  # another stamp
            R(30.0, 0, "result_salvaged", stamp="0.1", uid=1),
            R(31.0, 0, "recovery_complete", stamp="0.1", uid=1),  # already closed
        ]))
        assert (total, overlap, still_open) == (1, 1, {})
        assert closed == [("0.1", 10.0, 30.0)]

    def test_holder_abort_moots_every_window_the_holder_held(self):
        # uid 7 holds two open obligations; its abort drops both, and a
        # late result for one of them must not close (or re-measure) it
        total, overlap, closed, still_open = recovery_windows(ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=7),
            R(11.0, 0, "recovery_reissue", stamp="0.2", reason="timeout", uid=7),
            R(12.0, 1, "recovery_reissue", stamp="1.0", reason="timeout", uid=8),
            R(20.0, 0, "task_aborted", stamp="0", uid=7, reason="rollback"),
            R(90.0, 0, "result_received", stamp="0.1", uid=7),
        ]))
        assert (total, overlap, closed) == (3, 3, [])
        assert still_open == {"1.0": 12.0}

    def test_aborted_task_discards_its_own_pending_recovery(self):
        # the aborted instance is the *child* being recovered (stamp
        # matches), held by someone else: that window is dropped too
        _, _, closed, still_open = recovery_windows(ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=3),
            R(15.0, 2, "task_aborted", stamp="0.1", uid=9, reason="rollback"),
        ]))
        assert closed == [] and still_open == {}

    def test_later_reissue_supersedes_and_keeps_its_place(self):
        _, overlap, closed, still_open = recovery_windows(ctx([
            R(10.0, 0, "recovery_reissue", stamp="a", reason="timeout", uid=1),
            R(20.0, 0, "recovery_reissue", stamp="b", reason="timeout", uid=1),
            R(40.0, 0, "recovery_reissue", stamp="a", reason="timeout", uid=1),
        ]))
        assert overlap == 2 and closed == []
        assert list(still_open.items()) == [("a", 40.0), ("b", 20.0)]

    def test_real_stamps_pair_by_value_not_identity(self):
        _, _, closed, _ = recovery_windows(ctx([
            R(10.0, 0, "recovery_reissue", stamp=LevelStamp.of(0, 1), reason="t", uid=1),
            R(25.0, 0, "result_received", stamp=LevelStamp.of(0, 1), uid=1),
        ]))
        assert closed == [(LevelStamp.of(0, 1), 10.0, 25.0)]


class TestBothConsumersReadIt:
    def test_stats_fold_of_the_mooting_trace(self):
        context = ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=7),
            R(12.0, 1, "recovery_reissue", stamp="1.0", reason="timeout", uid=8),
            R(20.0, 0, "task_aborted", stamp="0", uid=7, reason="rollback"),
            R(22.0, 1, "recovery_reissue", stamp="1.1", reason="timeout", uid=8),
            R(42.0, 1, "result_received", stamp="1.1", uid=8),
        ])
        stats = recovery_stats(context)
        assert (stats.windows, stats.max_overlap, stats.left_open) == (3, 2, 1)
        # worst is the window still open at the end: (100 - 12) / 50
        assert stats.worst_ratio == pytest.approx(1.76)
        verdict = evaluate_context(context, CheckConfig(oracles=("bounded-recovery",))).verdicts[0]
        assert verdict.status == "violation" and verdict.window == (12.0, 100.0)

    @pytest.mark.parametrize("nemesis", [
        "crash:at=0.4,node=1",
        "partition:start=0.3,dur=0.25,group=0-1",
        "chaos:drop=0.1,dup=0.1,reorder=0.2,span=30",
    ])
    def test_oracle_margin_is_the_stats_margin_on_real_runs(self, nemesis):
        spec = (
            Experiment.workload("balanced:5:2:10").policy("rollback").processors(4)
            .nemesis(nemesis).seed(0).build()
        )
        context = build_context(execute(spec, collect_trace=True), CheckConfig())
        _, _, closed, still_open = recovery_windows(context)
        spans = [done - opened for _, opened, done in closed]
        spans += [context.makespan - opened for opened in still_open.values()]
        stats = recovery_stats(context)
        assert stats.worst_ratio == round(max(spans, default=0.0) / context.horizon, 6)
        bounded = evaluate_context(context, CheckConfig(oracles=("bounded-recovery",))).verdicts[0]
        assert (bounded.status == "violation") == (
            stats.worst_ratio > 1.0 or bool(still_open and not context.completed)
        )


class TestComputedOncePerRun:
    def test_false_positive_derivation_is_shared(self):
        context = ctx([
            R(5.0, 0, "failure_detected", dead=1),
            R(6.0, 1, "failure_detected", dead=0),
            R(7.0, 2, "failure_detected", dead=3),
            R(8.0, 3, "node_failed"),
        ])
        records, pairs, onesided = context.false_positives
        assert context.false_positives[0] is records
        assert [r.time for r in records] == [5.0, 6.0]
        assert pairs == {(0, 1), (1, 0)} and onesided == []
        report = evaluate_context(context, CheckConfig(oracles=("weak-recovery",)))
        assert report.verdicts[0].status == "weak"
        signature = signature_from_context(context, report)
        assert (signature.false_positives, signature.one_sided) == (2, 0)

    def test_evaluator_folds_the_windows_once_per_simulation(self, monkeypatch):
        calls = []
        real = search_module.recovery_stats

        def counting(context):
            calls.append(context)
            return real(context)

        monkeypatch.setattr(search_module, "recovery_stats", counting)
        monkeypatch.setattr("repro.check.coverage.recovery_stats", counting)
        base = (
            Experiment.workload("balanced:5:2:10").policy("rollback").processors(4)
            .seed(0).build()
        )
        evaluator = Evaluator(base, CheckConfig())
        first = evaluator.evaluate(NemesisSpec.parse("crash:at=0.4,node=1"))
        again = evaluator.evaluate(NemesisSpec.parse("crash:at=0.4,node=1"))
        assert evaluator.simulations == 1 and again.cached and not first.cached
        assert len(calls) == 1
        assert first.margin == real(calls[0]).worst_ratio
        assert first.signature.margin == again.signature.margin
