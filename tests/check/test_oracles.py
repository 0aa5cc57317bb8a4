"""Oracle-layer unit tests: synthetic traces and end-to-end regimes.

The oracles are pure functions of a :class:`CheckContext`, so most
cases here build tiny hand-written traces that exhibit exactly one
phenomenon — an acausal delivery, an unmatched checkpoint drop, a
stranded recovery — and assert the verdict and its violating window.
The end-to-end cases then pin the three real regimes: fault-free runs
pass everything, crash recovery passes bounded-recovery, and the
classifier regimes from ``docs/FAULTS.md`` land where documented.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Experiment, Session
from repro.check import (
    ORACLE_NAMES,
    CheckConfig,
    CheckContext,
    CheckReport,
    all_oracles,
    check_spec,
    evaluate_context,
    run_corpus,
)
from repro.cli import main
from repro.errors import SpecError
from repro.sim.trace import KINDS, TraceRecord

CORPUS_FILE = os.path.join(
    os.path.dirname(__file__), "..", "baselines", "corpus", "rollback-chaos-wide.json"
)


def R(time, node, kind, stamp=None, uid=None, **extra):
    assert kind in KINDS
    return TraceRecord(time, node, kind, stamp, uid, extra)


def ctx(records, completed=True, verified=True, makespan=100.0, horizon=300.0, **kw):
    return CheckContext(
        records=tuple(records),
        completed=completed,
        verified=verified,
        makespan=makespan,
        horizon=horizon,
        **kw,
    )


def verdict(name, context, **config):
    report = evaluate_context(context, CheckConfig(oracles=(name,), **config))
    assert len(report.verdicts) == 1
    return report.verdicts[0]


class TestCatalog:
    def test_catalog_names_and_order(self):
        assert ORACLE_NAMES == (
            "result-agreement",
            "no-orphan-commit",
            "checkpoint-coverage",
            "causal-delivery",
            "bounded-recovery",
            "weak-recovery",
        )
        assert tuple(all_oracles()) == ORACLE_NAMES

    def test_unknown_oracle_is_a_spec_error(self):
        with pytest.raises(SpecError) as err:
            evaluate_context(ctx([]), CheckConfig(oracles=("no-such-oracle",)))
        assert err.value.allowed == ORACLE_NAMES

    def test_subset_selection(self):
        report = evaluate_context(
            ctx([]), CheckConfig(oracles=("weak-recovery", "causal-delivery"))
        )
        assert [v.oracle for v in report.verdicts] == [
            "weak-recovery", "causal-delivery",
        ]


class TestCheckConfigHorizon:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("name", ["horizon_frac", "horizon_time"])
    def test_a_horizon_must_be_finite_and_positive(self, name, bad):
        # every `>` against NaN is false, so bounded-recovery would pass
        # vacuously; a non-positive horizon fails every recovery
        with pytest.raises(SpecError) as err:
            CheckConfig(**{name: bad})
        assert err.value.field == "check.horizon"
        with pytest.raises(SpecError) as err:
            CheckConfig.from_json({name: bad})
        assert err.value.field == "check.horizon"

    def test_session_and_documents_share_the_rule(self):
        with pytest.raises(SpecError, match="finite positive"):
            Session(oracles=CheckConfig(horizon_frac=float("nan")))
        config = CheckConfig(horizon_frac=0.5, horizon_time=700.0)
        assert CheckConfig.from_json(config.to_json()) == config


class TestCheckConfigDocuments:
    @pytest.mark.parametrize("doc, field", [
        ({"horizon_frac": True}, "check.horizon"),  # a bool is not 1.0
        ({"horizon_time": False}, "check.horizon"),
        ({"horizon_frac": "soon"}, "check.horizon"),
        ({"horizon_frac": [3.0]}, "check.horizon"),
        ({"oracles": "bounded-recovery"}, "check.oracles"),  # not 16 letters
        ({"oracles": ["nosuch"]}, "check.oracles"),
        ({"oracles": [["bounded-recovery"]]}, "check.oracles"),
        ({"oracles": None}, "check.oracles"),
        (["horizon_frac", 3.0], "check.config"),
    ])
    def test_a_hostile_document_is_a_spec_error(self, doc, field):
        with pytest.raises(SpecError) as err:
            CheckConfig.from_json(doc)
        assert err.value.field == field
        if field == "check.oracles":
            assert err.value.allowed == ORACLE_NAMES

    def test_a_hostile_corpus_check_block_fails_before_any_run(self, tmp_path, monkeypatch):
        import repro.api.session as session_module

        def no_run(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(session_module, "execute", no_run)
        with open(CORPUS_FILE, encoding="utf-8") as fh:
            doc = json.load(fh)
        for check, field in (({"horizon_frac": True}, "check.horizon"),
                             ({"oracles": "bounded-recovery"}, "check.oracles")):
            doc["check"] = check
            path = tmp_path / "hostile.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(SpecError) as err:
                run_corpus(str(path))
            assert err.value.field == field

    def test_the_cli_exits_2_with_one_error_line(self, tmp_path, capsys):
        with open(CORPUS_FILE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["check"]["horizon_frac"] = True
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", "corpus", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_CHECK_DOCS = st.fixed_dictionaries({}, optional={
    "horizon_frac": _JSON | st.floats(0.01, 10.0),
    "horizon_time": _JSON | st.floats(0.01, 1e4),
    "oracles": _JSON | st.lists(st.sampled_from(ORACLE_NAMES), max_size=3),
}) | _JSON


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_CHECK_DOCS)
def test_any_check_block_loads_or_is_a_spec_error(doc, tmp_path):
    try:
        config = CheckConfig.from_json(doc)
    except SpecError:
        config = None
    else:
        assert CheckConfig.from_json(config.to_json()) == config
        assert type(config.horizon_frac) is float and set(config.oracles) <= set(ORACLE_NAMES)
    # the corpus loader reads the same block first, before any entry runs
    with open(CORPUS_FILE, encoding="utf-8") as fh:
        corpus = json.load(fh)
    corpus["check"], corpus["entries"] = doc, []
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus), encoding="utf-8")
    try:
        report = run_corpus(str(path))
    except SpecError:
        assert config is None
    else:
        assert config is not None and report.ok and report.entries == ()


class TestResultAgreement:
    def test_stall_is_a_violation_with_window(self):
        v = verdict(
            "result-agreement",
            ctx([R(50.0, 0, "spawn", stamp="0")], completed=False, verified=None),
        )
        assert v.status == "violation" and v.window == (50.0, 100.0)

    def test_wrong_value_is_a_violation(self):
        v = verdict("result-agreement", ctx([], verified=False))
        assert v.status == "violation" and "sequential oracle" in v.detail

    def test_unverified_completion_passes(self):
        assert verdict("result-agreement", ctx([], verified=None)).status == "pass"

    def test_verified_completion_passes(self):
        assert verdict("result-agreement", ctx([])).status == "pass"


class TestNoOrphanCommit:
    def test_delivery_into_aborted_instance_is_a_violation(self):
        v = verdict(
            "no-orphan-commit",
            ctx([
                R(10.0, 1, "task_aborted", stamp="0.1", uid=7, reason="rollback"),
                R(30.0, 1, "result_received", stamp="0.1.0", uid=7, value="3"),
            ]),
        )
        assert v.status == "violation" and v.window == (10.0, 30.0)

    def test_completion_of_aborted_instance_is_a_violation(self):
        v = verdict(
            "no-orphan-commit",
            ctx([
                R(10.0, 1, "task_aborted", stamp="0.1", uid=7, reason="rollback"),
                R(20.0, 1, "task_completed", stamp="0.1", uid=7, value="3"),
            ]),
        )
        assert v.status == "violation"

    def test_abort_then_silence_passes(self):
        v = verdict(
            "no-orphan-commit",
            ctx([
                R(10.0, 1, "task_aborted", stamp="0.1", uid=7, reason="rollback"),
                R(30.0, 1, "result_received", stamp="0.1.0", uid=9, value="3"),
            ]),
        )
        assert v.status == "pass"


class TestCheckpointCoverage:
    def test_unmatched_drop_is_a_violation(self):
        v = verdict(
            "checkpoint-coverage",
            ctx([R(5.0, 0, "checkpoint_dropped", stamp="0.1")]),
        )
        assert v.status == "violation" and "negative" in v.detail

    def test_drop_of_other_stamp_is_still_unmatched(self):
        v = verdict(
            "checkpoint-coverage",
            ctx([
                R(1.0, 0, "checkpoint_recorded", stamp="0.1", dest=1),
                R(5.0, 0, "checkpoint_dropped", stamp="0.2"),
            ]),
        )
        assert v.status == "violation"

    def test_balanced_coverage_passes(self):
        v = verdict(
            "checkpoint-coverage",
            ctx([
                R(1.0, 0, "checkpoint_recorded", stamp="0.1", dest=1),
                R(2.0, 0, "checkpoint_recorded", stamp="0.1", dest=2),
                R(5.0, 0, "checkpoint_dropped", stamp="0.1"),
                R(6.0, 0, "checkpoint_dropped", stamp="0.1"),
            ]),
        )
        assert v.status == "pass" and "2 recorded / 2 dropped" in v.detail


class TestCausalDelivery:
    def test_receive_without_origin_is_a_violation(self):
        v = verdict(
            "causal-delivery",
            ctx([R(10.0, 0, "result_received", stamp="0.1", uid=1, value="2")]),
        )
        assert v.status == "violation" and v.window == (10.0, 10.0)

    @pytest.mark.parametrize(
        "origin", ("result_sent", "result_relayed", "result_orphan_rerouted")
    )
    def test_each_origin_kind_legitimizes(self, origin):
        v = verdict(
            "causal-delivery",
            ctx([
                R(5.0, 2, origin, stamp="0.1", to="0"),
                R(10.0, 0, "result_received", stamp="0.1", uid=1, value="2"),
            ]),
        )
        assert v.status == "pass"

    def test_origin_after_receive_is_still_acausal(self):
        v = verdict(
            "causal-delivery",
            ctx([
                R(10.0, 0, "result_received", stamp="0.1", uid=1, value="2"),
                R(15.0, 2, "result_sent", stamp="0.1", to="0"),
            ]),
        )
        assert v.status == "violation"


class TestBoundedRecovery:
    def test_closed_within_horizon_passes(self):
        v = verdict(
            "bounded-recovery",
            ctx([
                R(10.0, 1, "recovery_reissue", stamp="0.1", reason="rollback", uid=3),
                R(40.0, 1, "recovery_complete", stamp="0.1", uid=3),
            ]),
        )
        assert v.status == "pass"

    def test_closed_late_is_a_violation(self):
        v = verdict(
            "bounded-recovery",
            ctx(
                [
                    R(10.0, 1, "recovery_reissue", stamp="0.1", reason="r", uid=3),
                    R(90.0, 1, "result_received", stamp="0.1", uid=3, value="2"),
                ],
                horizon=50.0,
            ),
        )
        assert v.status == "violation" and v.window == (10.0, 90.0)

    def test_open_obligation_on_a_stalled_run_is_a_violation(self):
        v = verdict(
            "bounded-recovery",
            ctx(
                [R(10.0, 1, "recovery_reissue", stamp="0.1", reason="r", uid=3)],
                completed=False, verified=None,
            ),
        )
        assert v.status == "violation" and "stalled" in v.detail

    def test_holder_abort_moots_the_obligation(self):
        v = verdict(
            "bounded-recovery",
            ctx([
                R(10.0, 1, "recovery_reissue", stamp="0.1", reason="r", uid=3),
                R(20.0, 1, "task_aborted", stamp="0", uid=3, reason="rollback"),
            ]),
        )
        assert v.status == "pass"

    def test_later_reissue_supersedes_the_window(self):
        v = verdict(
            "bounded-recovery",
            CheckContext(
                records=(
                    R(10.0, 1, "recovery_reissue", stamp="0.1", reason="r", uid=3),
                    R(80.0, 1, "recovery_reissue", stamp="0.1", reason="r", uid=3),
                    R(95.0, 1, "recovery_complete", stamp="0.1", uid=3),
                ),
                completed=True, verified=True, makespan=100.0, horizon=30.0,
            ),
        )
        assert v.status == "pass"


class TestWeakRecoveryClassifier:
    def test_no_detections_passes(self):
        assert verdict("weak-recovery", ctx([])).status == "pass"

    def test_true_positive_passes(self):
        v = verdict(
            "weak-recovery",
            ctx([
                R(5.0, 2, "node_failed"),
                R(10.0, 0, "failure_detected", dead=2),
            ]),
        )
        assert v.status == "pass" and "real crash" in v.detail

    def test_symmetric_false_positive_is_weak(self):
        v = verdict(
            "weak-recovery",
            ctx([
                R(10.0, 0, "failure_detected", dead=1),
                R(10.0, 1, "failure_detected", dead=0),
            ]),
        )
        assert v.status == "weak" and "symmetric" in v.detail

    def test_one_sided_survived_is_weak(self):
        v = verdict(
            "weak-recovery",
            ctx([R(10.0, 0, "failure_detected", dead=1)]),
        )
        assert v.status == "weak" and "one-sided" in v.detail

    def test_one_sided_stranding_the_run_is_a_violation(self):
        v = verdict(
            "weak-recovery",
            ctx(
                [R(10.0, 0, "failure_detected", dead=1)],
                completed=False, verified=None,
            ),
        )
        assert v.status == "violation" and "0->1" in v.detail
        assert v.window == (10.0, 100.0)

    def test_dead_nodes_derive_from_trace_or_metrics(self):
        records = (R(5.0, 2, "node_failed"),)
        assert ctx(records).dead_nodes() == frozenset({2})
        assert ctx(records, failed_nodes=(3,)).dead_nodes() == frozenset({3})


class TestReport:
    def test_status_is_the_worst_verdict(self):
        report = evaluate_context(
            ctx([R(10.0, 0, "failure_detected", dead=1)])
        )
        assert report.status == "weak" and report.ok
        report = evaluate_context(ctx([], verified=False))
        assert report.status == "violation" and not report.ok
        assert [v.oracle for v in report.violations] == ["result-agreement"]

    def test_verdict_lookup(self):
        report = evaluate_context(ctx([]))
        assert report.verdict("causal-delivery").status == "pass"
        with pytest.raises(KeyError):
            report.verdict("nope")

    def test_to_json_shape(self):
        doc = evaluate_context(ctx([])).to_json()
        assert doc["status"] == "pass" and len(doc["verdicts"]) == len(ORACLE_NAMES)
        assert {"oracle", "status", "detail", "window"} == set(doc["verdicts"][0])

    def test_table_renders_every_oracle(self):
        text = evaluate_context(ctx([])).table()
        for name in ORACLE_NAMES:
            assert name in text


class TestEndToEnd:
    def test_fault_free_run_passes_every_oracle(self):
        _, report = check_spec(
            Experiment.workload("balanced:4:2:30").policy("rollback")
            .processors(4).seed(0).build()
        )
        assert report.status == "pass"

    def test_crash_recovery_passes_every_oracle(self):
        _, report = check_spec(
            Experiment.workload("balanced:4:2:30").policy("rollback")
            .processors(4).seed(0).fault(0.4, 1).build()
        )
        assert report.status == "pass"
        assert "reissue" in report.verdict("bounded-recovery").detail

    def test_session_oracles_option_attaches_a_report(self):
        session = Session(oracles=True)
        handle = session.run(
            Experiment.workload("balanced:3:2:10").processors(4).build()
        )
        assert isinstance(handle.check, CheckReport)
        assert handle.check.status == "pass"
        # oracle evaluation forces the trace on
        assert session.collect_trace and len(handle.result.trace) > 0

    def test_session_with_custom_config(self):
        session = Session(oracles=CheckConfig(oracles=("result-agreement",)))
        handle = session.run(
            Experiment.workload("balanced:3:2:10").processors(4).build()
        )
        assert [v.oracle for v in handle.check.verdicts] == ["result-agreement"]
