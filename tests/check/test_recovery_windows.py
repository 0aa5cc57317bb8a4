"""The one recovery view, judged by the naive derivations it replaced.

``CheckContext.recovery`` folds a run's recovery once: the reissue ->
close pairing, the reissue reasons, the detector's false positives and
the worst window/horizon ratio.  It replaced ``recovery_windows`` (read
twice per simulation: by ``bounded-recovery`` and by the stats),
``recovery_stats``, ``CheckContext.false_positives`` and the signature's
own reason scan.  Those bodies are kept here, unchanged, as the
reference the view must equal field for field, on synthetic traces and
on real runs; the cases below them pin the pairing rules themselves.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment, NemesisSpec, RunSpec, execute
from repro.check import (
    CheckConfig,
    CheckContext,
    Evaluator,
    build_context,
    check_spec,
    evaluate_context,
    signature_from_context,
)
from repro.check.oracles import RECOVERY_KINDS
from repro.core.stamps import LevelStamp
from repro.sim.trace import Trace, TraceRecord

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "baselines", "corpus")


def R(time, node, kind, stamp=None, uid=None, **extra):
    return TraceRecord(time, node, kind, stamp, uid, extra)


def ctx(records, completed=True, makespan=100.0, horizon=50.0, **kw):
    return CheckContext(
        records=tuple(records), completed=completed, verified=True,
        makespan=makespan, horizon=horizon, **kw,
    )


# -- the reference: the derivations the view replaced, as they were ----------


def reference_windows(ctx):
    open_at = {}  # stamp -> (opened, holder uid)
    closed = []
    total = overlap = 0
    for r in ctx.trace.of_kind(
        "recovery_reissue", "recovery_complete", "result_received",
        "result_salvaged", "task_aborted",
    ):
        if r.kind == "recovery_reissue":
            total += 1
            open_at[r.stamp] = (r.time, r.uid)
            overlap = max(overlap, len(open_at))
        elif not open_at:
            continue
        elif r.kind == "task_aborted":
            for s in [s for s, (_, holder) in open_at.items() if holder == r.uid]:
                del open_at[s]
            open_at.pop(r.stamp, None)
        elif r.stamp in open_at:
            closed.append((r.stamp, open_at.pop(r.stamp)[0], r.time))
    return total, overlap, closed, {s: t for s, (t, _) in open_at.items()}


def reference_stats(ctx):
    """``(windows, max_overlap, worst_ratio, left_open)``."""
    total, max_overlap, closed, still_open = reference_windows(ctx)
    horizon = ctx.horizon if ctx.horizon > 0 else 1.0
    spans = [done - opened for _, opened, done in closed]
    spans += [ctx.makespan - opened for opened in still_open.values()]
    worst = round(max([0.0] + [span / horizon for span in spans]), 6)
    return total, max_overlap, worst, len(still_open)


def reference_false_positives(ctx):
    dead = ctx.dead_nodes()
    records = [
        r for r in ctx.trace.of_kind("failure_detected")
        if r.extra.get("dead") not in dead
    ]
    pairs = {(r.node, r.extra["dead"]) for r in records}
    return records, pairs, sorted(p for p in pairs if p[::-1] not in pairs)


def reference_reasons(ctx):
    return sorted({str(r.extra.get("reason")) for r in ctx.trace.of_kind("recovery_reissue")})


def assert_matches_reference(context):
    view = context.recovery
    total, overlap, closed, still_open = reference_windows(context)
    windows, max_overlap, worst, left_open = reference_stats(context)
    records, pairs, onesided = reference_false_positives(context)
    assert (view.reissues, view.max_overlap) == (total, overlap) == (windows, max_overlap)
    assert list(view.closed) == closed
    assert list(view.still_open) == list(still_open.items())
    assert len(view.still_open) == left_open
    assert view.worst_ratio == worst
    assert list(view.reasons) == reference_reasons(context)
    assert list(view.false_positives) == records
    assert view.pairs == pairs
    assert list(view.one_sided) == onesided


_STAMPS = ("0.1", "0.2", "1.0", LevelStamp.of(0, 1))
_UIDS = (1, 2, 3)
_EVENT = st.one_of(
    st.tuples(st.just("recovery_reissue"), st.sampled_from(_STAMPS), st.sampled_from(_UIDS),
              st.sampled_from(("timeout", "rollback", None))),
    st.tuples(st.sampled_from(("recovery_complete", "result_received", "result_salvaged",
                               "task_aborted")),
              st.sampled_from(_STAMPS), st.sampled_from(_UIDS), st.none()),
    st.tuples(st.just("failure_detected"), st.integers(0, 3), st.integers(0, 3), st.none()),
    st.tuples(st.just("node_failed"), st.integers(0, 3), st.none(), st.none()),
)


def _record(time, event):
    kind, a, b, reason = event
    if kind == "failure_detected":
        return R(time, a, kind, dead=b)
    if kind == "node_failed":
        return R(time, a, kind)
    if kind == "recovery_reissue" and reason is not None:
        return R(time, 0, kind, stamp=a, uid=b, reason=reason)
    return R(time, 0, kind, stamp=a, uid=b)


class TestTheViewIsTheReference:
    @settings(max_examples=300, deadline=None)
    @given(
        events=st.lists(st.tuples(st.integers(0, 20), _EVENT), max_size=24),
        completed=st.booleans(),
        tail=st.integers(0, 60),
        horizon=st.sampled_from((0.0, 7.5, 30.0, 1e9)),
        failed_nodes=st.none() | st.lists(st.integers(0, 3), max_size=2).map(tuple),
    )
    def test_synthetic_traces(self, events, completed, tail, horizon, failed_nodes):
        records, time = [], 0.0
        for step, event in events:
            time += step
            records.append(_record(time, event))
        assert_matches_reference(ctx(
            records, completed=completed, makespan=time + tail, horizon=horizon,
            failed_nodes=failed_nodes,
        ))

    def test_the_corpus_schedules(self):
        seen = 0
        for name in sorted(os.listdir(CORPUS_DIR)):
            with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            base = RunSpec.from_json(doc["base"])
            config = CheckConfig.from_json(doc["check"])
            for entry in doc["entries"]:
                spec = replace(base, nemesis=NemesisSpec.parse(entry["nemesis"])).validate()
                context = build_context(execute(spec, collect_trace=True), config)
                assert context.recovery.still_open and context.recovery.one_sided
                assert_matches_reference(context)
                seen += 1
        assert seen == 3


class TestPairing:
    def test_result_closes_its_window(self):
        view = ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=1),
            R(12.0, 0, "result_received", stamp="0.9", uid=1),  # another stamp
            R(30.0, 0, "result_salvaged", stamp="0.1", uid=1),
            R(31.0, 0, "recovery_complete", stamp="0.1", uid=1),  # already closed
        ]).recovery
        assert (view.reissues, view.max_overlap, view.still_open) == (1, 1, ())
        assert view.closed == (("0.1", 10.0, 30.0),)

    def test_holder_abort_moots_every_window_the_holder_held(self):
        # uid 7 holds two open obligations; its abort drops both, and a
        # late result for one of them must not close (or re-measure) it
        view = ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=7),
            R(11.0, 0, "recovery_reissue", stamp="0.2", reason="timeout", uid=7),
            R(12.0, 1, "recovery_reissue", stamp="1.0", reason="timeout", uid=8),
            R(20.0, 0, "task_aborted", stamp="0", uid=7, reason="rollback"),
            R(90.0, 0, "result_received", stamp="0.1", uid=7),
        ]).recovery
        assert (view.reissues, view.max_overlap, view.closed) == (3, 3, ())
        assert view.still_open == (("1.0", 12.0),)

    def test_aborted_task_discards_its_own_pending_recovery(self):
        # the aborted instance is the *child* being recovered (stamp
        # matches), held by someone else: that window is dropped too
        view = ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=3),
            R(15.0, 2, "task_aborted", stamp="0.1", uid=9, reason="rollback"),
        ]).recovery
        assert view.closed == () and view.still_open == ()

    def test_later_reissue_supersedes_and_keeps_its_place(self):
        view = ctx([
            R(10.0, 0, "recovery_reissue", stamp="a", reason="timeout", uid=1),
            R(20.0, 0, "recovery_reissue", stamp="b", reason="timeout", uid=1),
            R(40.0, 0, "recovery_reissue", stamp="a", reason="timeout", uid=1),
        ]).recovery
        assert view.max_overlap == 2 and view.closed == ()
        assert view.still_open == (("a", 40.0), ("b", 20.0))

    def test_real_stamps_pair_by_value_not_identity(self):
        view = ctx([
            R(10.0, 0, "recovery_reissue", stamp=LevelStamp.of(0, 1), reason="t", uid=1),
            R(25.0, 0, "result_received", stamp=LevelStamp.of(0, 1), uid=1),
        ]).recovery
        assert view.closed == ((LevelStamp.of(0, 1), 10.0, 25.0),)


class TestBothConsumersReadIt:
    def test_stats_fold_of_the_mooting_trace(self):
        context = ctx([
            R(10.0, 0, "recovery_reissue", stamp="0.1", reason="timeout", uid=7),
            R(12.0, 1, "recovery_reissue", stamp="1.0", reason="timeout", uid=8),
            R(20.0, 0, "task_aborted", stamp="0", uid=7, reason="rollback"),
            R(22.0, 1, "recovery_reissue", stamp="1.1", reason="timeout", uid=8),
            R(42.0, 1, "result_received", stamp="1.1", uid=8),
        ])
        view = context.recovery
        assert (view.reissues, view.max_overlap, len(view.still_open)) == (3, 2, 1)
        # worst is the window still open at the end: (100 - 12) / 50
        assert view.worst_ratio == pytest.approx(1.76)
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
        view = context.recovery
        assert view.reissues > 0
        assert_matches_reference(context)
        spans = [done - opened for _, opened, done in view.closed]
        spans += [context.makespan - opened for _, opened in view.still_open]
        assert view.worst_ratio == round(max(spans, default=0.0) / context.horizon, 6)
        bounded = evaluate_context(context, CheckConfig(oracles=("bounded-recovery",))).verdicts[0]
        assert (bounded.status == "violation") == (
            view.worst_ratio > 1.0 or bool(view.still_open and not context.completed)
        )


    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the horizon ignores the capacity the cascade took: window 0.1.0.0 "
        "takes 1449.29 against a horizon of 813",
    )
    def test_a_cascade_is_judged_against_the_capacity_that_survived(self):
        # fail-silent survivors redo the dead processors' work, so a
        # recovery cannot close faster than they can; a horizon scaled
        # by the survivors reads this run as the pass it is
        spec = (
            Experiment.workload("balanced:5:2:10").policy("rollback").processors(4)
            .nemesis("cascade:at=0.01,node=3").build()
        )
        handle, report = check_spec(spec)
        assert handle.result.completed and handle.result.verified
        status = {verdict.oracle: verdict.status for verdict in report.verdicts}
        assert status["bounded-recovery"] == "pass", report.verdicts


class TestComputedOncePerRun:
    def test_false_positive_derivation_is_shared(self):
        context = ctx([
            R(5.0, 0, "failure_detected", dead=1),
            R(6.0, 1, "failure_detected", dead=0),
            R(7.0, 2, "failure_detected", dead=3),
            R(8.0, 3, "node_failed"),
        ])
        view = context.recovery
        assert context.recovery is view
        assert [r.time for r in view.false_positives] == [5.0, 6.0]
        assert view.pairs == {(0, 1), (1, 0)} and view.one_sided == ()
        report = evaluate_context(context, CheckConfig(oracles=("weak-recovery",)))
        assert report.verdicts[0].status == "weak"
        signature = signature_from_context(context, report)
        assert (signature.false_positives, signature.one_sided) == (2, 0)

    def test_evaluator_folds_the_windows_once_per_simulation(self, monkeypatch):
        folds = []
        real = Trace.of_kind

        def counting(self, *kinds):
            if "recovery_reissue" in kinds:
                folds.append(kinds)
            return real(self, *kinds)

        monkeypatch.setattr(Trace, "of_kind", counting)
        base = (
            Experiment.workload("balanced:5:2:10").policy("rollback").processors(4)
            .seed(0).build()
        )
        evaluator = Evaluator(base, CheckConfig())
        first = evaluator.evaluate(NemesisSpec.parse("crash:at=0.4,node=1"))
        again = evaluator.evaluate(NemesisSpec.parse("crash:at=0.4,node=1"))
        assert evaluator.simulations == 1 and again.cached and not first.cached
        # every reader (both oracles, the signature, the margin) shared one fold
        assert folds == [RECOVERY_KINDS]
        monkeypatch.undo()
        spec = replace(base, nemesis=NemesisSpec.parse("crash:at=0.4,node=1")).validate()
        context = build_context(execute(spec, collect_trace=True), CheckConfig())
        assert first.margin == reference_stats(context)[2] > 0
        assert first.signature.margin == again.signature.margin
