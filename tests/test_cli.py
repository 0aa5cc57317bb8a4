"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import _parse_fault, build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _parsers(parser=None, path=()):
    """Every parser of ``repro``, top level first, keyed by its verb path."""
    parser = build_parser() if parser is None else parser
    yield path, parser
    for group in parser._subparsers._group_actions if parser._subparsers else ():
        for name, sub in group.choices.items():
            yield from _parsers(sub, path + (name,))


class TestList:
    def test_lists_workloads_and_policies(self):
        code, text = run_cli("list")
        assert code == 0
        assert "fib-10" in text
        assert "splice" in text


class TestRun:
    def test_fault_free_run(self):
        code, text = run_cli("run", "fib-10", "--policy", "none")
        assert code == 0
        assert "completed" in text and "verified" in text

    def test_run_with_fault_recovers(self):
        code, text = run_cli(
            "run", "fib-10", "--policy", "splice", "--fault", "600:2", "--seed", "7"
        )
        assert code == 0
        assert "verified" in text

    def test_run_with_fault_no_ft_fails_exit_code(self):
        code, text = run_cli(
            "run", "balanced-d5-f2", "--policy", "none", "--fault", "150:1"
        )
        assert code == 1
        assert "STALLED" in text

    def test_trace_flag(self):
        code, text = run_cli(
            "run", "fib-10", "--policy", "rollback", "--fault", "600:2", "--trace"
        )
        assert code == 0
        assert "recovery_reissue" in text

    @pytest.mark.parametrize(
        "injected",
        [
            ("--fault", "300:2", "--fault", "500:4"),
            ("--nemesis", "crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1,reorder=0.2,span=40"),
        ],
        ids=["faults", "nemesis"],
    )
    @pytest.mark.parametrize(
        "policy",
        [
            "none", "rollback", "splice", "incremental", "incremental:persist=hybrid",
            "reversible", "replicated:3",
        ],
    )
    def test_a_run_traces_only_when_trace_asks(self, policy, injected, monkeypatch):
        """Without ``--trace`` nothing prints the trace, so it is not
        collected; collecting it anyway changes not a byte of stdout nor
        the exit code."""
        from repro import cli

        real, asked = cli.Session, []
        argv = (
            "run", "balanced:4:3:25", "--processors", "6", "--seed", "7",
            "--policy", policy, *injected,
        )

        def run_collecting(collect, *extra):
            def session(collect_trace=False, **kwargs):
                asked.append(collect_trace)
                return real(collect_trace=collect, **kwargs)

            monkeypatch.setattr(cli, "Session", session)
            return run_cli(*argv, *extra)

        assert run_collecting(False) == run_collecting(True)
        _, text = run_collecting(True, "--trace")
        assert asked == [False, False, True] and "Recovery trace:" in text

    def test_replicated_policy(self):
        code, text = run_cli(
            "run",
            "balanced-d3-f4",
            "--policy",
            "replicated",
            "--replication",
            "3",
            "--processors",
            "5",
            "--fault",
            "100:1",
        )
        assert code == 0

    def test_unknown_workload(self):
        code, _ = run_cli("run", "no-such-workload")
        assert code == 2

    def test_invalid_config(self):
        code, _ = run_cli("run", "fib-10", "--processors", "6", "--topology", "hypercube")
        assert code == 2

    def test_fault_on_unknown_processor(self):
        code, _ = run_cli("run", "fib-10", "--fault", "100:9")
        assert code == 2

    def test_workload_spec_strings_accepted(self):
        # `repro run` takes the full workload grammar, not just suite names
        code, text = run_cli("run", "balanced:3:2:10", "--policy", "splice")
        assert code == 0
        assert "completed" in text and "verified" in text

    def test_bad_workload_one_line_diagnostic(self, capsys):
        code, _ = run_cli("run", "balanced:3:x:10")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x'" in err
        assert "Traceback" not in err

    def test_a_deep_chain_runs_and_verifies(self):
        # deeper than the interpreter's stack: nothing per-task may recurse
        code, text = run_cli("run", "chain:900:1", "--processors", "4")
        assert code == 0
        assert "value=900 [verified]" in text

    def test_wrong_program_arity_one_line_diagnostic(self, capsys):
        code, text = run_cli("run", "prog:tak:1")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and "takes 3 integer args" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_nemesis_flag(self):
        code, text = run_cli(
            "run", "balanced:3:2:10", "--policy", "splice",
            "--nemesis", "jitter:max=10", "--seed", "3",
        )
        assert code == 0
        assert "verified" in text

    def test_bad_nemesis_one_line_diagnostic(self, capsys):
        code, _ = run_cli("run", "fib-10", "--nemesis", "nosuch:x=1")
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown fault model" in err and "Traceback" not in err


class TestRunSpecFlags:
    def test_dry_run_prints_canonical_runspec(self):
        from repro.api import RUNSPEC_SCHEMA, RunSpec

        code, text = run_cli(
            "run", "balanced:3:2:10", "--policy", "splice",
            "--fault", "300:1", "--seed", "9", "--dry-run",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["schema"] == RUNSPEC_SCHEMA
        spec = RunSpec.from_json(doc)
        assert spec.workload.to_spec_str() == "balanced:3:2:10"
        assert spec.policy.name == "splice" and spec.seed == 9
        assert spec.faults.mode == "time" and spec.faults.entries == ((300.0, 1),)
        # canonical: the emitted text is byte-stable
        from repro.util.jsonio import canonical_dumps

        assert text == canonical_dumps(doc)

    def test_spec_json_replays_a_saved_spec(self, tmp_path):
        code, text = run_cli(
            "run", "balanced:3:2:10", "--policy", "splice", "--seed", "4", "--dry-run"
        )
        assert code == 0
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, text = run_cli("run", "--spec-json", str(path))
        assert code == 0
        assert "completed" in text and "verified" in text

    def test_spec_json_conflicts_with_workload(self, capsys):
        code, _ = run_cli("run", "fib-10", "--spec-json", "x.json")
        assert code == 2
        assert "--spec-json" in capsys.readouterr().err

    def test_spec_json_rejects_flag_overrides(self, tmp_path, capsys):
        # flags alongside --spec-json would silently run a different
        # experiment than the document names — refuse instead
        code, text = run_cli("run", "balanced:3:2:10", "--dry-run")
        assert code == 0
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, _ = run_cli(
            "run", "--spec-json", str(path), "--policy", "splice", "--seed", "9"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--policy" in err and "--seed" in err and "Traceback" not in err
        # even a flag given at its default value counts as an explicit
        # override attempt and is refused (the document is authoritative)
        code, _ = run_cli("run", "--spec-json", str(path), "--policy", "rollback")
        assert code == 2
        assert "--policy" in capsys.readouterr().err

    def test_spec_json_missing_file(self, capsys):
        code, _ = run_cli("run", "--spec-json", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_without_workload(self, capsys):
        code, _ = run_cli("run")
        assert code == 2
        assert "workload" in capsys.readouterr().err


class TestFaultParsing:
    def test_parse(self):
        fault = _parse_fault("600:2")
        assert fault.time == 600.0 and fault.node == 2

    def test_reject_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("nope")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("600")

    def test_reject_fraction_mode_prefix(self):
        # "frac:0.5:1" would otherwise inject at t=0.5 absolute
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="absolute"):
            _parse_fault("frac:0.5:1")

    def test_cli_and_api_agree_on_the_diagnostic(self):
        # Satellite guarantee: both entry points delegate to
        # FaultSpec.parse, so malformed input yields the same structured
        # message whether it arrives via --fault or the programmatic API.
        import argparse

        from repro.api import FaultSpec, SpecError

        for bad in ("nope", "600", "x:1", "0.5:n", ":", "600:"):
            with pytest.raises(SpecError) as api_err:
                FaultSpec.parse(bad, mode="time")
            with pytest.raises(argparse.ArgumentTypeError) as cli_err:
                _parse_fault(bad)
            assert str(cli_err.value) == str(api_err.value), bad


class TestFaults:
    def test_faults_list_shows_models_and_composition_hint(self):
        code, text = run_cli("faults", "list")
        assert code == 0
        for name in ("crash", "cascade", "partition", "chaos", "grayfail", "jitter"):
            assert name in text
        assert "compose" in text and "docs/FAULTS.md" in text

    def test_faults_describe_shows_params_and_example(self):
        code, text = run_cli("faults", "describe", "chaos")
        assert code == 0
        assert "drop" in text and "reorder" in text
        assert "example:" in text and "fractions of the baseline makespan" in text

    def test_faults_describe_marks_fraction_params(self):
        code, text = run_cli("faults", "describe", "partition")
        assert code == 0
        assert "×T" in text

    def test_faults_describe_unknown(self):
        code, _ = run_cli("faults", "describe", "no-such-model")
        assert code == 2


class TestReport:
    def test_report_list_shows_scenarios_and_hint(self):
        code, text = run_cli("report", "list")
        assert code == 0
        assert "rollback-vs-splice" in text and "smoke" in text
        assert "results/reports" in text and "docs/REPORTS.md" in text

    def test_report_run_writes_markdown_and_json(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "run", "smoke", "--replications", "2",
            "--cache-dir", cache,
        )
        assert code == 0
        assert "# Report: `smoke`" in text
        assert "bootstrap" in text
        md = tmp_path / "results" / "reports" / "smoke.md"
        js = tmp_path / "results" / "reports" / "smoke.json"
        assert md.exists() and js.exists()
        assert f"wrote {md}" in text

    def test_report_run_no_write_and_json(self, tmp_path):
        import json

        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "run", "smoke", "--replications", "2",
            "--cache-dir", cache, "--no-write", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == "repro-report/1"
        assert payload["replications"] == 2
        assert not (tmp_path / "results" / "reports").exists()

    def test_report_compare_axis(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "compare", "smoke", "--axis", "policy",
            "--replications", "2", "--cache-dir", cache,
        )
        assert code == 0
        assert "policy=rollback → policy=splice" in text
        assert (tmp_path / "results" / "reports" / "smoke-by-policy.md").exists()

    def test_report_compare_baseline_coerced(self, tmp_path):
        # --baseline is a string on the CLI; axis values may be floats
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "compare", "smoke", "--axis", "fault_frac",
            "--baseline", "0.8", "--cache-dir", cache, "--no-write",
        )
        assert code == 0
        assert "fault_frac=0.8 → fault_frac=0.4" in text

    def test_report_reuses_the_sweep_cache(self, tmp_path):
        cache = str(tmp_path / "results")
        code, _ = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0
        code, text = run_cli(
            "report", "run", "smoke", "--cache-dir", cache, "--no-write"
        )
        assert code == 0
        assert "replicates per point: 1" in text

    def test_report_unknown_scenario(self, capsys):
        code, _ = run_cli("report", "run", "no-such-scenario")
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_report_bad_replications_one_line_diagnostic(self, capsys):
        code, _ = run_cli("report", "run", "smoke", "--replications", "0", "--no-write")
        assert code == 2
        err = capsys.readouterr().err
        assert ">= 1" in err and "Traceback" not in err

    def test_report_compare_requires_one_form(self, capsys):
        code, _ = run_cli("report", "compare", "smoke", "--no-write")
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        code, _ = run_cli(
            "report", "compare", "smoke", "smoke", "--axis", "policy", "--no-write"
        )
        assert code == 2

    def test_report_bad_axis_one_line_diagnostic(self, capsys):
        code, _ = run_cli("report", "compare", "smoke", "--axis", "nope", "--no-write")
        assert code == 2
        err = capsys.readouterr().err
        assert "no axis" in err and "Traceback" not in err


class TestExp:
    def test_exp_list_shows_scenarios(self):
        code, text = run_cli("exp", "list")
        assert code == 0
        assert "rollback-vs-splice" in text
        assert "overhead-faultfree" in text
        assert "smoke" in text

    def test_exp_show(self):
        code, text = run_cli("exp", "show", "smoke")
        assert code == 0
        assert "axes" in text and "fault_frac" in text
        assert "point seeds" in text

    def test_exp_show_json_expands_runspecs(self):
        import json

        from repro.api import RUNSPEC_SCHEMA, RunSpec
        from repro.exp import get_scenario
        from repro.util.jsonio import canonical_dumps

        code, text = run_cli("exp", "show", "smoke", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["scenario"] == "smoke"
        assert payload["key"] == get_scenario("smoke").key()
        assert payload["n_points"] == len(payload["points"]) == 4
        for point in payload["points"]:
            doc = point["runspec"]
            assert doc["schema"] == RUNSPEC_SCHEMA
            RunSpec.from_json(doc)  # must be a valid, replayable document
        assert text == canonical_dumps(payload)

    def test_exp_show_json_covers_the_competing_policies(self):
        import json

        from repro.api import RunSpec

        code, text = run_cli("exp", "show", "policy-compare-chaos", "--json")
        assert code == 0
        payload = json.loads(text)
        policies = {p["params"]["policy"] for p in payload["points"]}
        assert {"incremental", "incremental:persist=hybrid", "reversible"} <= policies
        for point in payload["points"]:
            doc = point["runspec"]
            spec = RunSpec.from_json(doc)  # valid, replayable document
            assert spec.policy.to_spec_str() == point["params"]["policy"]
            # the persist key is emitted only for the parameterized form
            assert ("persist" in doc["policy"]) == (
                point["params"]["policy"] == "incremental:persist=hybrid"
            )

    def test_exp_show_json_non_machine_runner_has_params_only(self):
        import json

        code, text = run_cli("exp", "show", "fig1-fragmentation", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["runner"] == "figure"
        assert "runspec" not in payload["points"][0]

    def test_exp_show_unknown(self):
        code, _ = run_cli("exp", "show", "no-such-scenario")
        assert code == 2

    def test_exp_show_runtime_failure_exits_1(self, monkeypatch, capsys):
        # under `exp`, a failure that is neither an unknown name nor a
        # malformed spec is a runtime one: exit 1, one line, no traceback
        import repro.exp
        from repro.errors import ReproError

        def unreadable(name):
            raise ReproError("cannot read the scenario registry")

        monkeypatch.setattr(repro.exp, "get_scenario", unreadable)
        code, text = run_cli("exp", "show", "smoke")
        assert code == 1 and text == ""
        assert capsys.readouterr().err == "error: cannot read the scenario registry\n"

    def test_exp_show_malformed_registered_scenario_diagnoses(self, capsys):
        # a user-registered scenario with a typo'd param must get the
        # one-line SpecError treatment, not a traceback (key() parses
        # every machine point into a RunSpec)
        from repro.exp import ScenarioSpec
        from repro.exp.scenario import _REGISTRY

        bad = ScenarioSpec(
            name="bad-typo",
            title="typo'd param",
            description="test",
            runner="machine",
            base={"workload": "balanced:2:2:5", "procesors": 8},
            axes={},
        )
        _REGISTRY[bad.name] = bad
        try:
            code, _ = run_cli("exp", "show", "bad-typo")
            assert code == 2
            err = capsys.readouterr().err
            assert "unknown run parameter" in err and "procesors" in err
            code, _ = run_cli("exp", "show", "bad-typo", "--json")
            assert code == 2
        finally:
            del _REGISTRY[bad.name]

    def test_exp_run_unknown(self):
        code, _ = run_cli("exp", "run", "no-such-scenario")
        assert code == 2

    def test_exp_run_no_cache(self):
        code, text = run_cli("exp", "run", "smoke", "--no-cache")
        assert code == 0
        assert "rollback" in text and "splice" in text
        assert "cache:" not in text

    def test_exp_run_caches_and_hits(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0 and "cache: miss, computed" in text
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0 and "cache: hit" in text
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache, "--force")
        assert code == 0 and "cache: miss, computed" in text

    def test_exp_run_workers_match_serial(self, tmp_path):
        import json

        code1, text1 = run_cli(
            "exp", "run", "smoke", "--no-cache", "--json", "--workers", "1"
        )
        code2, text2 = run_cli(
            "exp", "run", "smoke", "--no-cache", "--json", "--workers", "2"
        )
        assert code1 == code2 == 0
        assert text1 == text2
        payload = json.loads(text1)
        assert payload["scenario"] == "smoke" and len(payload["points"]) == 4


class TestExpLedger:
    """CLI surface of the durable run ledger (docs/LEDGER.md)."""

    def test_exp_run_ledgers_by_default_with_cache(self, tmp_path):
        import os

        cache = str(tmp_path / "results")
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0
        assert "ledger:" in text
        from repro.exp import get_scenario

        run_id = get_scenario("smoke").run_id()
        assert run_id in text
        assert os.path.exists(
            os.path.join(cache, "ledger", f"{run_id}.jsonl")
        )

    def test_no_ledger_and_no_cache_disable_the_ledger(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "exp", "run", "smoke", "--cache-dir", cache, "--no-ledger"
        )
        assert code == 0 and "ledger:" not in text
        assert not (tmp_path / "results" / "ledger").exists()
        code, text = run_cli("exp", "run", "smoke", "--no-cache")
        assert code == 0 and "ledger:" not in text

    def test_cache_hit_prints_no_ledger_line(self, tmp_path):
        import shutil

        cache = str(tmp_path / "results")
        run_cli("exp", "run", "smoke", "--cache-dir", cache)
        shutil.rmtree(tmp_path / "results" / "ledger")
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0 and "cache: hit" in text
        assert "ledger:" not in text
        assert not (tmp_path / "results" / "ledger").exists()

    def test_exp_runs_empty_dir(self, tmp_path):
        code, text = run_cli(
            "exp", "runs", "--cache-dir", str(tmp_path / "results")
        )
        assert code == 0
        assert "no ledgered runs" in text

    def test_exp_runs_lists_progress_and_json(self, tmp_path):
        import json

        cache = str(tmp_path / "results")
        run_cli("exp", "run", "smoke", "--cache-dir", cache)
        code, text = run_cli("exp", "runs", "--cache-dir", cache)
        assert code == 0
        assert "smoke" in text and "4/4" in text and "100%" in text
        code, text = run_cli("exp", "runs", "--cache-dir", cache, "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == "repro-ledger/1"
        (entry,) = payload["runs"]
        assert entry["scenario"] == "smoke"
        assert entry["progress"] == 1.0 and entry["status"] == "complete"

    def test_exp_resume_unknown_run_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(
            "exp", "resume", "nope-123456789abc",
            "--cache-dir", str(tmp_path / "results"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no ledger for run" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("exp", "run", "smoke", "--no-cache", "--workers", "0"),
            ("exp", "run", "smoke", "--no-cache", "--workers", "-3"),
            ("exp", "resume", "smoke-123456789abc", "--workers", "0"),
            ("report", "run", "smoke", "--no-write", "--workers", "0"),
            ("report", "compare", "smoke", "--axis", "policy", "--no-write", "--workers", "0"),
        ],
        ids=["exp-run-0", "exp-run-neg", "exp-resume", "report-run", "report-compare"],
    )
    def test_a_worker_count_below_one_exits_2_in_one_line(self, argv, tmp_path, capsys):
        code, out = run_cli(*argv, "--cache-dir", str(tmp_path / "results"))
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: workers must be at least 1, got {argv[-1]}\n"
        assert not os.path.exists(tmp_path / "results")

    def test_exp_resume_completes_and_matches_direct_run(self, tmp_path):
        from repro.exp import LedgerWriter, get_scenario, run_scenario

        spec = get_scenario("smoke")
        cache = str(tmp_path / "results")
        full = run_scenario("smoke")
        ledger_dir = tmp_path / "results" / "ledger"
        with LedgerWriter.start(str(ledger_dir), spec) as writer:
            writer.point_started(0)
            writer.point_finished(0, full.points[0]["result"])
        code, text = run_cli("exp", "resume", spec.run_id(), "--cache-dir", cache)
        assert code == 0
        assert "resumed 3 point(s)" in text
        code, direct = run_cli(
            "exp", "run", "smoke", "--cache-dir", str(tmp_path / "ref"), "--json"
        )
        assert code == 0
        code, resumed = run_cli(
            "exp", "run", "smoke", "--cache-dir", cache, "--json"
        )
        assert code == 0 and resumed == direct

    def test_exp_resume_no_cache_keeps_the_ledger(self, tmp_path):
        # on resume, --no-cache only skips the cache write; the ledger
        # still lives at <cache-dir>/ledger and is completed there
        from repro.exp import LedgerWriter, get_scenario, replay_ledger, run_scenario

        spec = get_scenario("smoke")
        full = run_scenario("smoke")
        cache = tmp_path / "results"
        with LedgerWriter.start(str(cache / "ledger"), spec) as writer:
            for index in (0, 1):
                writer.point_started(index)
                writer.point_finished(index, full.points[index]["result"])
        code, text = run_cli(
            "exp", "resume", spec.run_id(), "--cache-dir", str(cache), "--no-cache"
        )
        assert code == 0
        assert "resumed 2 point(s)" in text
        assert os.listdir(cache) == ["ledger"]  # no cache file
        (ledger,) = (cache / "ledger").iterdir()
        assert replay_ledger(str(ledger)).status == "complete"

    def test_exp_run_unwritable_cache_exits_1_one_line(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache tree must go")
        code, _ = run_cli("exp", "run", "smoke", "--cache-dir", str(blocker))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestDiagnostics:
    """The one diagnostic site in ``main``: one ``error:`` line, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("exp", "run", "nosuch"),
            ("exp", "show", "nosuch"),
            ("faults", "describe", "nosuch"),
            ("check", "run", "--scenario", "nosuch"),
            ("report", "run", "nosuch"),
            ("report", "compare", "nosuch", "--axis", "policy"),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_unknown_name_is_one_plain_line(self, argv, capsys):
        # a registry's KeyError(message) must print as the message, not
        # as its repr ("error: \"unknown scenario 'nosuch'; ...\"")
        code, text = run_cli(*argv)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("error: unknown ") and "'nosuch'" in err
        assert '"' not in err and "\\" not in err

    @pytest.mark.parametrize(
        "workload",
        ["balanced:0:0:0", "chain:-1:5", "wide:0:0", "random:1:0", "balanced:-1:2:3",
         "balanced:50:50:1"],
    )
    def test_a_shape_nothing_can_be_built_from_is_one_line(self, workload, capsys):
        # was: a ValueError traceback out of the tree builder (exit 1), and
        # for balanced:50:50:1 a build that never returned
        code, text = run_cli("run", workload)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: workload kind ")
        assert repr(workload) in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_replication_factor_below_one_never_reaches_the_simulator(self, k, capsys, tmp_path):
        # the flag value is refused by argparse (usage + one error line) ...
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "fib-10", f"--policy=replicated:{k}")
        assert exit_info.value.code == 2
        (line,) = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert "replication factor must be >= 1" in line
        # ... and the same string inside a document by the one handler in main
        code, doc = run_cli("run", "fib-10", "--policy", "replicated:3", "--dry-run")
        assert code == 0
        path = tmp_path / "spec.json"
        path.write_text(doc.replace('"replicated:3"', f'"replicated:{k}"'), encoding="utf-8")
        code, text = run_cli("run", "--spec-json", str(path))
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "replication factor must be >= 1" in err

    def test_every_verb_renders_its_help(self):
        # argparse evaluates a help string's %-formats only when it renders
        # it, so a help text that reads an owner's value must be rendered
        helps = {path: p.format_help() for path, p in _parsers()}
        assert len(helps) == 24  # the top level and its 23 verbs
        assert all(text.startswith("usage: repro") for text in helps.values())

    def test_help_reads_each_default_from_its_owner(self):
        from inspect import signature

        from repro.check import CheckConfig, search
        from repro.config import RESULTS_DIR
        from repro.util.stats import DEFAULT_LEVEL, DEFAULT_N_BOOT

        knobs = {n: p.default for n, p in signature(search).parameters.items()}
        helps = {path: " ".join(p.format_help().split()) for path, p in _parsers()}
        search_knobs = [knobs[name] for name in ("seed", "max_clauses", "rounds", "out_dir")]
        owned = {
            ("check", "search"): search_knobs + [CheckConfig.horizon_frac],
            ("report", "run"): [DEFAULT_LEVEL, DEFAULT_N_BOOT, f"./{RESULTS_DIR}"],
            ("exp", "run"): [f"./{RESULTS_DIR}"],
        }
        for path, values in owned.items():
            for value in values:
                assert f"(default: {value})" in helps[path], (path, value)

    def test_every_verb_has_a_handler(self):
        # every leaf parser resolves to a handler; a parser with verbs
        # under it sets none of its own
        from repro import cli

        def leaves(parser, path):
            if parser._subparsers is None:
                yield path, parser
                return
            assert "handler" not in parser._defaults, path
            for group in parser._subparsers._group_actions:
                for name, sub in group.choices.items():
                    yield from leaves(sub, path + (name,))

        handlers = {
            path: sub._defaults.get("handler") for path, sub in leaves(cli.build_parser(), ())
        }
        assert ("check", "corpus", "run") in handlers
        assert None not in handlers.values(), handlers
        # ... and every cmd_* function is some verb's handler
        assert set(handlers.values()) == {
            getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")
        }


class TestCheck:
    WORKLOAD = "balanced:3:2:10"

    def test_check_audit_prints_the_kill_matrix_and_rate(self):
        code, text = run_cli("check", "audit")
        assert code == 0
        (row,) = [line for line in text.splitlines() if "abort-in-name-only" in line]
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells == ["abort-in-name-only", "Node._mark_aborted", "-", "2/12"] + ["-"] * 4 + [
            "killed"
        ]
        assert text.rstrip().endswith("killed 3 of 16 mutants")
        code, text = run_cli("check", "audit", "--mutant", "never-unwind")
        assert code == 0 and "survivor" in text
        assert text.rstrip().endswith("killed 0 of 1 mutants")

    def test_check_audit_refuses_an_unknown_mutant(self, capsys):
        code, text = run_cli("check", "audit", "--mutant", "bogus")
        assert code == 2 and text == ""
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: unknown mutant 'bogus'; known: skip-replay")

    def test_check_run_judges_one_flag_built_spec(self):
        code, text = run_cli(
            "check", "run", "balanced:4:2:30", "--nemesis", "crash:at=0.4,node=1"
        )
        assert code == 0
        assert "bounded-recovery" in text and "pass" in text

    @pytest.mark.parametrize("verb", ["run", "search"])
    def test_scenario_replaces_the_workload_argument(self, verb, capsys):
        code, _ = run_cli("check", verb, self.WORKLOAD, "--scenario", "smoke")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --scenario replaces the workload argument")
        code, _ = run_cli("check", verb)
        assert code == 2
        assert "a workload (or --scenario NAME) is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, dropped",
        [
            (
                ("run", "--policy", "none", "--nemesis", "crash:at=0.4,node=1"),
                "--policy, --nemesis",
            ),
            (
                ("search", "--policy", "none", "--processors", "2", "--json", "--no-write"),
                "--policy, --processors",
            ),
            # a flag given at its default value is still refused
            (("run", "--seed", "0"), "--seed"),
        ],
        ids=["run", "search", "default-value"],
    )
    def test_scenario_refuses_explicit_spec_flags(self, argv, dropped, capsys):
        # the scenario carries the whole spec: a spec flag beside it used
        # to be ignored without a word
        verb, *flags = argv
        code, text = run_cli("check", verb, "--scenario", "smoke", *flags)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: --scenario carries the whole experiment; drop {dropped} "
            "or give a workload argument instead\n"
        )

    def test_search_seed_is_not_a_spec_flag(self):
        # check search's --seed seeds the schedule generator; it does not
        # reshape the scenario's spec, so --scenario accepts it
        code, text = run_cli(
            "check", "search", "--scenario", "smoke", "--seed", "3", "--rounds", "1",
            "--no-write",
        )
        assert code == 0 and "1 schedule(s) tried" in text

    def test_an_unknown_model_is_one_line_before_anything_runs(self, capsys):
        # the generator's rule, raised by search() itself: the CLI keeps no
        # copy of it, and the line is unchanged
        code, text = run_cli(
            "check", "search", self.WORKLOAD, "--models", "crash,bogus", "--rounds", "1",
            "--no-write",
        )
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: cannot generate fault model(s) ['bogus'] "
            "(allowed: crash, cascade, partition, chaos, grayfail, jitter)\n"
        )

    def test_search_seed_leaves_the_base_seed_alone(self):
        # beside a workload argument too, --seed seeds only the generator
        code, text = run_cli(
            "check", "search", "balanced:3:2:10", "--seed", "5", "--rounds", "1",
            "--no-write", "--json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["seed"] == 5 and doc["base"]["seed"] == 0

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--rounds", "0", "--expect", "clean"), "rounds"),
            (("--strategy", "coverage", "--rounds", "-3"), "rounds"),
            (("--max-clauses", "0"), "max_clauses"),
        ],
    )
    def test_a_vacuous_search_is_an_error_not_a_clean_verdict(
        self, flags, field, tmp_path, capsys
    ):
        # an empty budget tried nothing; it must not pass `--expect clean`
        code, text = run_cli(
            "check", "search", self.WORKLOAD, "--out-dir", str(tmp_path), *flags
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be at least 1") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # no ledger was written

    @pytest.mark.parametrize(
        "flags",
        [("--horizon", "nan"), ("--horizon", "-1"), ("--horizon", "0"),
         ("--horizon-time", "inf")],
        ids=" ".join,
    )
    def test_a_horizon_must_be_finite_and_positive(self, flags, capsys):
        # every `>` against a NaN horizon is false: bounded-recovery
        # would pass vacuously
        code, text = run_cli(
            "check", "run", "balanced:4:2:30", "--nemesis", "crash:at=0.4,node=1", *flags
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "must be a finite positive number" in err and err.count("\n") == 1
