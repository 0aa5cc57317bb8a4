"""Docs consistency checks (run in CI as the docs gate).

Every scenario name referenced in README/docs must exist in the
scenario registry (and every registered scenario must be documented),
every benchmark name PERFORMANCE.md maps a retired bench onto must be a
name ``BENCHMARK.json`` declares (read here, never written), and the
fault-model registry must agree with FAULTS.md and the ``repro faults``
CLI — so the docs, ``repro exp list``, ``bench/run.py --list``, and
``repro faults list`` can never drift apart silently.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.exp import all_scenarios
from repro.faults import all_models

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_FILES = [
    "README.md",
    "docs/API.md",
    "docs/ARCHITECTURE.md",
    "docs/SCENARIOS.md",
    "docs/PERFORMANCE.md",
    "docs/FAULTS.md",
    "docs/LEDGER.md",
    "docs/REPORTS.md",
    "docs/CHECK.md",
    "docs/LOAD.md",
    "docs/POLICIES.md",
]

EXP_REF = re.compile(r"exp (?:run|show) ([a-z0-9][a-z0-9-]*)")
#: `repro exp` verbs referenced in docs (the verb group is API).
EXP_CLI_REF = re.compile(r"exp (list|show|run|runs|resume)\b")
#: `repro report` verbs referenced in docs (the verb group is API).
REPORT_CLI_REF = re.compile(r"report (list|run|compare)")
#: Scenario names fed to the report verbs must resolve too.
REPORT_SCENARIO_REF = re.compile(r"report (?:run|compare) ([a-z0-9][a-z0-9-]*)")
#: The heading over PERFORMANCE.md's retired-bench mapping table: left
#: column the retired name, right column where ``bench/`` measures it.
MAPPING_HEADING = "## Where the retired benches went"
#: The retired suite's verb and baseline file; gone from the repo, so
#: the docs may name them only in that table's left-hand column.
RETIRED_STRINGS = ("repro perf", "BENCH_core.json")
FAULTS_CLI_REF = re.compile(r"faults (list|describe)")
CHECK_CLI_REF = re.compile(r"check (list|run|search|corpus|audit)")

#: The fault-model registry names are API: scenario specs, sweep caches,
#: and docs all reference them as strings, so renames are breaking
#: changes and must be made deliberately (here and in docs/FAULTS.md).
FAULT_MODEL_NAMES = {"crash", "cascade", "partition", "chaos", "grayfail", "jitter"}

#: The public surface of repro.api is a contract: docs, the README
#: quickstart, and downstream code import these names.  Removals or
#: renames are breaking changes and must be made deliberately (here,
#: in docs/API.md, and in the README).
API_EXPORTS = {
    "RUNSPEC_SCHEMA",
    "ArrivalSpec",
    "Experiment",
    "FaultSpec",
    "MachineSpec",
    "NemesisClause",
    "NemesisSpec",
    "PolicySpec",
    "RunHandle",
    "RunSpec",
    "Session",
    "SpecError",
    "WorkloadSpec",
    "execute",
}

#: The public surface of repro.report, pinned like repro.api: docs and
#: CI reference these names, so removals/renames are breaking changes
#: and must be made deliberately (here and in docs/REPORTS.md).
REPORT_EXPORTS = {
    "DEFAULT_OUT_DIR",
    "REPORT_SCHEMA",
    "CellDelta",
    "CellSummary",
    "Comparison",
    "MetricDelta",
    "MetricSummary",
    "ReportResult",
    "SweepAggregate",
    "aggregate_sweep",
    "compare_aggregates",
    "compare_payload",
    "markdown_compare",
    "markdown_report",
    "report_payload",
    "run_compare",
    "run_report",
    "split_compare",
}


#: The public surface of repro.exp, pinned like repro.api: the CLI,
#: docs/SCENARIOS.md, docs/LEDGER.md, and the run ledgers reference
#: these names, so removals/renames are breaking changes and must be
#: made deliberately (here and in those docs).
EXP_EXPORTS = {
    "DEFAULT_LEDGER_DIR",
    "LEDGER_SCHEMA",
    "LedgerState",
    "LedgerWarning",
    "LedgerWriter",
    "Point",
    "ScenarioSpec",
    "SweepResult",
    "all_scenarios",
    "expand",
    "expanded_runspecs",
    "get_scenario",
    "ledger_path",
    "list_runs",
    "point_runspec",
    "point_seed",
    "register",
    "replay_ledger",
    "replicate_seed",
    "resume_run",
    "run_scenario",
    "sweep_table",
    "with_replications",
}

#: The public surface of repro.check, pinned like repro.api: the CLI,
#: docs/CHECK.md, and the search ledgers reference these names, so
#: removals/renames are breaking changes and must be made deliberately
#: (here and in docs/CHECK.md).
CHECK_EXPORTS = {
    "CHECK_SCHEMA",
    "CORPUS_SCHEMA",
    "DEFAULT_LEDGER_DIR",
    "MODES",
    "ORACLE_NAMES",
    "STATUSES",
    "STRATEGIES",
    "CheckConfig",
    "CheckContext",
    "CheckReport",
    "CorpusReport",
    "CoverageSignature",
    "Evaluator",
    "OracleInfo",
    "SearchResult",
    "Verdict",
    "all_oracles",
    "build_context",
    "check_spec",
    "corpus_doc",
    "evaluate",
    "evaluate_context",
    "ledger_path",
    "load_corpus",
    "oracle",
    "run_corpus",
    "search",
    "select_oracles",
    "shrink",
    "signature_from_context",
    "write_corpus",
}

#: The public surface of repro.load, pinned like repro.api: CLI flags,
#: scenario axes, and docs/LOAD.md reference these names, so
#: removals/renames are breaking changes and must be made deliberately
#: (here and in docs/LOAD.md).
LOAD_EXPORTS = {
    "ARRIVAL_PROCESSES",
    "Arrival",
    "ArrivalSpec",
    "LoadGenerator",
    "LoadState",
    "LoadSummary",
    "OVERFLOW_POLICIES",
    "OpenLoopWorkload",
    "PROCESSES",
    "sample_arrivals",
}

#: Arrival-process and overflow-policy names are API: spec strings in
#: sweep caches, ledgers, and CLI flags match on them, so renames are
#: breaking changes (update here and in docs/LOAD.md deliberately).
ARRIVAL_PROCESS_NAMES = ("poisson", "bursty", "diurnal")
OVERFLOW_POLICY_NAMES = ("drop", "tail", "backpressure")

#: The policy-spec names are API: RunSpec documents, sweep cache keys,
#: CLI flags, and docs all match on these strings, so renames are
#: breaking changes and must be made deliberately (here and in the one
#: catalog table, ``repro.api.specs.POLICY_PARAMS``; the CLI, the
#: ``--policy`` help and docs/POLICIES.md are checked against that table).
POLICY_CATALOG = {
    "none": {},
    "rollback": {},
    "splice": {},
    "reversible": {},
    "incremental": {"persist": ("volatile", "durable", "hybrid")},
    "replicated": {"k": ()},
}

#: The public surface of repro.policies, pinned like repro.api: the
#: PolicySpec builder and docs/POLICIES.md reference these names.
POLICY_EXPORTS = {"IncrementalRecovery", "PERSIST_MODES", "ReversibleRecovery"}

#: The oracle catalog names are API: ledgers, docs, and the CLI pin
#: them as strings, so renames are breaking changes (update here and
#: in docs/CHECK.md deliberately).
ORACLE_NAMES = (
    "result-agreement",
    "no-orphan-commit",
    "checkpoint-coverage",
    "causal-delivery",
    "bounded-recovery",
    "weak-recovery",
)


def read_docs() -> dict:
    texts = {}
    for rel in DOC_FILES:
        path = os.path.join(REPO_ROOT, rel)
        with open(path, "r", encoding="utf-8") as fh:
            texts[rel] = fh.read()
    return texts


class TestDocsExist:
    @pytest.mark.parametrize("rel", DOC_FILES)
    def test_doc_file_present(self, rel):
        assert os.path.exists(os.path.join(REPO_ROOT, rel)), rel

    def test_readme_names_tier1_command(self):
        readme = read_docs()["README.md"]
        assert "python -m pytest -x -q" in readme
        assert "PYTHONPATH=src" in readme

    def test_readme_points_at_quickstart(self):
        readme = read_docs()["README.md"]
        assert "examples/quickstart.py" in readme
        assert os.path.exists(os.path.join(REPO_ROOT, "examples", "quickstart.py"))


class TestScenarioReferences:
    def test_every_referenced_scenario_is_registered(self):
        registered = set(all_scenarios())
        for rel, text in read_docs().items():
            for name in EXP_REF.findall(text):
                assert name in registered, f"{rel} references unknown scenario {name!r}"

    def test_docs_reference_at_least_the_core_scenarios(self):
        refs = set()
        for text in read_docs().values():
            refs.update(EXP_REF.findall(text))
        assert {"rollback-vs-splice", "overhead-faultfree", "smoke"} <= refs

    def test_every_registered_scenario_is_documented(self):
        corpus = "\n".join(read_docs().values())
        for name in all_scenarios():
            assert name in corpus, f"scenario {name!r} missing from README/docs"


def benchmark_declaration() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def mapping_table() -> list:
    """PERFORMANCE.md's mapping table as rows of cells, header first."""
    section = read_docs()["docs/PERFORMANCE.md"].split(MAPPING_HEADING, 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("| ---")
    ]


class TestBenchmarkReferences:
    def test_performance_md_names_every_workload_and_end_to_end_metric(self):
        perf_doc = read_docs()["docs/PERFORMANCE.md"]
        declared = benchmark_declaration()
        names = [w["name"] for w in declared["workloads"]]
        names += [m["name"] for m in declared["end_to_end"]]
        assert len(names) == 4 + 5
        for name in names:
            assert f"`{name}`" in perf_doc, f"{name!r} missing from PERFORMANCE.md"

    def test_mapping_table_points_at_declared_names(self):
        declared = benchmark_declaration()
        metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
        workloads = {w["name"] for w in declared["workloads"]}
        rows = mapping_table()[1:]
        assert len(rows) == 14, "one row per retired bench"
        for retired, workload, target in rows:
            assert re.match(r"`(macro|micro)-[a-z-]+`", retired), retired
            named = re.match(r"`([a-z-]+)`", workload)
            assert workload.startswith("any") or named.group(1) in workloads, workload
            names = re.findall(r"`([^`]+)`", target)
            assert names, f"{retired}: no BENCHMARK.json name given"
            for name in names:
                assert name in metrics, f"{retired} maps to undeclared {name!r}"

    def test_readme_performance_section_names_the_benchmark(self):
        readme = read_docs()["README.md"]
        section = readme.split("## Performance", 1)[1].split("\n## ", 1)[0]
        for needle in ("bench/run.py", "bench/compare.py", "BENCHMARK.json",
                       "docs/PERFORMANCE.md"):
            assert needle in section, f"README Performance section lacks {needle}"

    def test_the_retired_suite_is_named_only_in_the_mapping_table(self):
        docs = read_docs()
        for row in mapping_table():
            # blank the left-hand cell: the one place the old names may live
            docs["docs/PERFORMANCE.md"] = docs["docs/PERFORMANCE.md"].replace(row[0], "")
        for rel, text in docs.items():
            for retired in RETIRED_STRINGS:
                assert retired not in text, f"{rel} still names {retired!r}"
        for gone in ("BENCH_core.json", "benchmarks", "src/repro/perf", "tests/perf"):
            assert not os.path.exists(os.path.join(REPO_ROOT, gone)), gone


class TestFaultModelReferences:
    def test_registry_names_are_pinned(self):
        assert set(all_models()) == FAULT_MODEL_NAMES, (
            "fault-model registry names changed; update FAULT_MODEL_NAMES, "
            "docs/FAULTS.md, and any scenario specs deliberately"
        )

    def test_every_model_documented_in_faults_md(self):
        faults_doc = read_docs()["docs/FAULTS.md"]
        for name in all_models():
            assert f"`{name}`" in faults_doc, (
                f"fault model {name!r} missing from docs/FAULTS.md"
            )

    def test_docs_name_the_faults_cli_verbs(self):
        readme = read_docs()["README.md"]
        faults_doc = read_docs()["docs/FAULTS.md"]
        for text in (readme, faults_doc):
            verbs = set(FAULTS_CLI_REF.findall(text))
            assert {"list", "describe"} <= verbs, (
                "README and FAULTS.md must document `faults list` and "
                "`faults describe`"
            )

    def test_chaos_scenarios_registered_and_documented(self):
        registered = set(all_scenarios())
        corpus = "\n".join(read_docs().values())
        for name in ("chaos-partition", "chaos-grayfail", "chaos-storm"):
            assert name in registered
            assert name in corpus, f"chaos scenario {name!r} missing from docs"

    def test_faults_md_shows_the_spec_grammar(self):
        faults_doc = read_docs()["docs/FAULTS.md"]
        # the composition operator and a worked spec must be shown
        assert "+" in faults_doc and "crash:at=" in faults_doc


class TestApiReferences:
    def test_api_exports_are_pinned(self):
        import repro.api

        assert set(repro.api.__all__) == API_EXPORTS, (
            "repro.api exports changed; update API_EXPORTS, docs/API.md, "
            "and the README quickstart deliberately"
        )
        for name in API_EXPORTS:
            assert hasattr(repro.api, name), name

    def test_quickstart_import_line_works(self):
        # the documented quickstart import, verbatim
        from repro.api import Experiment, RunSpec, Session  # noqa: F401

    def test_package_root_reexports_the_api(self):
        import repro

        for name in ("Experiment", "Session", "RunSpec", "RunHandle", "SpecError"):
            assert name in repro.__all__ and hasattr(repro, name)

    def test_readme_quickstart_is_on_repro_api(self):
        readme = read_docs()["README.md"]
        assert "from repro.api import Experiment, Session, RunSpec" in readme
        assert "docs/API.md" in readme

    def test_docs_name_the_new_run_flags(self):
        readme = read_docs()["README.md"]
        api_doc = read_docs()["docs/API.md"]
        for text in (readme, api_doc):
            assert "--dry-run" in text
            assert "--spec-json" in text
        assert "--nemesis" in readme

    def test_docs_name_exp_show_json(self):
        corpus = read_docs()
        assert re.search(r"exp show [a-z0-9-]+ --json", corpus["README.md"])
        assert "--json" in corpus["docs/API.md"]

    def test_api_doc_shows_all_spec_grammars(self):
        api_doc = read_docs()["docs/API.md"]
        for cls in ("WorkloadSpec", "PolicySpec", "FaultSpec", "NemesisSpec",
                    "MachineSpec", "RunSpec"):
            assert cls in api_doc, f"{cls} missing from docs/API.md"
        from repro.api import RUNSPEC_SCHEMA

        assert RUNSPEC_SCHEMA in api_doc

    def test_api_doc_grammar_agrees_with_the_workload_kinds(self):
        api_doc = read_docs()["docs/API.md"]
        for kind in ("balanced", "chain", "wide", "skewed", "random", "prog"):
            assert f"{kind}:" in api_doc


class TestCheckReferences:
    def test_check_exports_are_pinned(self):
        import repro.check

        assert set(repro.check.__all__) == CHECK_EXPORTS, (
            "repro.check exports changed; update CHECK_EXPORTS and "
            "docs/CHECK.md deliberately"
        )
        for name in CHECK_EXPORTS:
            assert hasattr(repro.check, name), name

    def test_oracle_names_are_pinned(self):
        from repro.check import ORACLE_NAMES as live

        assert live == ORACLE_NAMES, (
            "oracle catalog changed; update ORACLE_NAMES and docs/CHECK.md "
            "deliberately — ledger consumers match on these strings"
        )

    def test_every_oracle_documented_in_check_md(self):
        check_doc = read_docs()["docs/CHECK.md"]
        for name in ORACLE_NAMES:
            assert f"`{name}`" in check_doc, (
                f"oracle {name!r} missing from docs/CHECK.md"
            )

    def test_docs_name_the_check_cli_verbs(self):
        readme = read_docs()["README.md"]
        check_doc = read_docs()["docs/CHECK.md"]
        for text in (readme, check_doc):
            verbs = set(CHECK_CLI_REF.findall(text))
            assert {"list", "run", "search", "corpus", "audit"} <= verbs, (
                "README and CHECK.md must document `check list`, "
                "`check run`, `check search`, `check corpus` and `check audit`"
            )

    def test_check_cli_verbs_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["check", "list"],
            ["check", "run", "fib-10"],
            ["check", "run", "--scenario", "smoke"],
            ["check", "search", "fib-10", "--seed", "3", "--expect", "clean"],
            ["check", "search", "fib-10", "--strategy", "coverage",
             "--rounds", "8", "--maximize", "--corpus-out", "c.json"],
            ["check", "corpus", "run", "tests/baselines/corpus"],
            ["check", "audit", "--mutant", "skip-replay"],
        ):
            args = parser.parse_args(argv)
            assert args.command == "check"

    def test_check_md_documents_the_ledger(self):
        check_doc = read_docs()["docs/CHECK.md"]
        from repro.check import CHECK_SCHEMA, CORPUS_SCHEMA

        assert CHECK_SCHEMA in check_doc
        assert CORPUS_SCHEMA in check_doc
        assert "results/check" in check_doc
        assert "shrink" in check_doc.lower()

    def test_check_md_documents_coverage_search(self):
        check_doc = read_docs()["docs/CHECK.md"]
        # the coverage-search section pins the feedback signal, the
        # strategy/budget/corpus flags, and the regression-gate verb
        assert "CoverageSignature" in check_doc
        for flag in ("--strategy", "--rounds", "--corpus-out", "--maximize"):
            assert flag in check_doc, flag
        assert "check corpus run" in check_doc
        assert "tests/baselines/corpus" in check_doc
        from repro.check import MODES, STRATEGIES

        assert STRATEGIES == ("random", "coverage")
        assert MODES == ("violation", "maximize")

    def test_faults_md_points_at_the_oracle_layer(self):
        faults_doc = read_docs()["docs/FAULTS.md"]
        assert "CHECK.md" in faults_doc
        assert "repro check" in faults_doc


class TestLedgerReferences:
    def test_exp_exports_are_pinned(self):
        import repro.exp

        assert set(repro.exp.__all__) == EXP_EXPORTS, (
            "repro.exp exports changed; update EXP_EXPORTS, docs/LEDGER.md, "
            "and docs/SCENARIOS.md deliberately"
        )
        for name in EXP_EXPORTS:
            assert hasattr(repro.exp, name), name

    def test_docs_name_the_exp_cli_verbs(self):
        readme = read_docs()["README.md"]
        ledger_doc = read_docs()["docs/LEDGER.md"]
        for text in (readme, ledger_doc):
            verbs = set(EXP_CLI_REF.findall(text))
            assert {"run", "runs", "resume"} <= verbs, (
                "README and LEDGER.md must document `exp run`, `exp runs`, "
                "and `exp resume`"
            )
        assert {"list", "show"} <= set(EXP_CLI_REF.findall(readme))

    def test_exp_cli_verbs_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["exp", "runs"])
        assert args.command == "exp" and args.exp_command == "runs"
        args = parser.parse_args(["exp", "resume", "smoke-b6154af7b70c"])
        assert args.exp_command == "resume"
        assert args.run_id == "smoke-b6154af7b70c"
        args = parser.parse_args(["exp", "run", "smoke", "--no-ledger"])
        assert args.no_ledger

    def test_ledger_md_documents_the_schema(self):
        ledger_doc = read_docs()["docs/LEDGER.md"]
        from repro.exp import LEDGER_SCHEMA

        assert LEDGER_SCHEMA in ledger_doc
        assert "results/ledger" in ledger_doc
        for event in (
            "run_started",
            "point_started",
            "point_finished",
            "point_failed",
            "run_finished",
        ):
            assert f"`{event}`" in ledger_doc, (
                f"ledger event {event!r} missing from docs/LEDGER.md"
            )
        assert "fsync" in ledger_doc
        assert "byte-identical" in ledger_doc

    def test_ledger_md_documents_the_test_hooks(self):
        # the crash hooks live in a harness beside the tests, not in the writer
        ledger_doc = read_docs()["docs/LEDGER.md"]
        harness = "tests/exp/crash_harness.py"
        assert harness in ledger_doc
        with open(os.path.join(REPO_ROOT, harness), encoding="utf-8") as fh:
            source = fh.read()
        for flag in ("--crash-after", "--slow"):
            assert flag in ledger_doc and f'"{flag}"' in source, flag

    def test_scenarios_md_points_at_the_ledger(self):
        scenarios_doc = read_docs()["docs/SCENARIOS.md"]
        assert "LEDGER.md" in scenarios_doc
        assert "results/ledger" in scenarios_doc or "ledger/" in scenarios_doc


class TestLoadReferences:
    def test_load_exports_are_pinned(self):
        import repro.load

        assert set(repro.load.__all__) == LOAD_EXPORTS, (
            "repro.load exports changed; update LOAD_EXPORTS and "
            "docs/LOAD.md deliberately"
        )
        for name in LOAD_EXPORTS:
            assert hasattr(repro.load, name), name

    def test_arrival_process_names_are_pinned(self):
        from repro.load import ARRIVAL_PROCESSES, OVERFLOW_POLICIES

        assert ARRIVAL_PROCESSES == ARRIVAL_PROCESS_NAMES, (
            "arrival-process names changed; spec strings in caches and "
            "ledgers match on these — update here and docs/LOAD.md "
            "deliberately"
        )
        assert OVERFLOW_POLICIES == OVERFLOW_POLICY_NAMES

    def test_every_process_and_policy_documented_in_load_md(self):
        load_doc = read_docs()["docs/LOAD.md"]
        for name in ARRIVAL_PROCESS_NAMES + OVERFLOW_POLICY_NAMES:
            assert f"`{name}`" in load_doc, (
                f"{name!r} missing from docs/LOAD.md"
            )

    def test_docs_name_the_load_cli_flags(self):
        readme = read_docs()["README.md"]
        load_doc = read_docs()["docs/LOAD.md"]
        assert "--arrivals" in load_doc
        assert "--horizon-time" in load_doc
        assert "--arrivals" in readme

    def test_load_cli_flags_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "fib-10", "--arrivals", "poisson:rate=0.01,horizon=100"]
        )
        assert args.arrivals == "poisson:rate=0.01,horizon=100"
        args = parser.parse_args(
            ["check", "run", "fib-10", "--arrivals",
             "poisson:rate=0.01,horizon=100", "--horizon-time", "900"]
        )
        assert args.horizon_time == 900.0

    def test_load_scenarios_registered_and_documented(self):
        registered = set(all_scenarios())
        corpus = "\n".join(read_docs().values())
        for name in ("load-steady", "load-saturation", "load-chaos"):
            assert name in registered
            assert name in corpus, f"load scenario {name!r} missing from docs"

    def test_load_md_shows_the_spec_grammar(self):
        load_doc = read_docs()["docs/LOAD.md"]
        assert "rate=" in load_doc and "horizon=" in load_doc
        assert "overflow=" in load_doc
        assert "ArrivalSpec" in load_doc


class TestPolicyReferences:
    def test_policies_exports_are_pinned(self):
        import repro.policies

        assert set(repro.policies.__all__) == POLICY_EXPORTS, (
            "repro.policies exports changed; update POLICY_EXPORTS and "
            "docs/POLICIES.md deliberately"
        )
        for name in POLICY_EXPORTS:
            assert hasattr(repro.policies, name), name

    def test_policy_names_are_pinned(self):
        from repro.api import PolicySpec
        from repro.api.specs import POLICY_PARAMS
        from repro.policies import PERSIST_MODES

        catalog = {
            name: {key: param.choices for key, param in table.items()}
            for name, table in POLICY_PARAMS.items()
        }
        assert catalog == POLICY_CATALOG, (
            "policy-spec names changed; RunSpec documents and sweep caches "
            "match on these strings — update here and docs/POLICIES.md "
            "deliberately"
        )
        assert PERSIST_MODES == POLICY_CATALOG["incremental"]["persist"]
        for name in POLICY_PARAMS:
            # every row builds, and the class it builds answers to the row's name
            assert PolicySpec.parse(name).build().name == name

    def test_cli_policy_help_names_every_policy(self):
        from repro.api.specs import POLICY_PARAMS
        from repro.cli import POLICIES, POLICY_HELP

        assert POLICIES == tuple(POLICY_PARAMS)
        for name, table in POLICY_PARAMS.items():
            assert name in POLICY_HELP, f"policy {name!r} missing from --policy help"
            for key, param in table.items():
                if param.choices:
                    assert f"{key}={'|'.join(param.choices)}" in POLICY_HELP
        assert "replicated[:K]" in POLICY_HELP

    def test_cli_policy_flag_validates_specs(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "fib-10", "--policy", "incremental:persist=durable"]
        )
        assert args.policy == "incremental:persist=durable"
        args = parser.parse_args(["check", "run", "fib-10", "--policy", "reversible"])
        assert args.policy == "reversible"
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["run", "fib-10", "--policy", "incremental:persist=bogus"]
            )

    def test_every_policy_documented_in_policies_md(self):
        from repro.api import PolicySpec
        from repro.api.specs import POLICY_PARAMS

        policies_doc = read_docs()["docs/POLICIES.md"]
        section = policies_doc.split("## Policy catalog", 1)[1].split("\n## ", 1)[0]
        rows = [
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        # the doc's catalog table is the code's: same names, same classes
        documented = {row[0].partition("[")[0]: row[1] for row in rows}
        assert documented == {
            name: type(PolicySpec.parse(name).build()).__name__ for name in POLICY_PARAMS
        }
        for table in POLICY_PARAMS.values():
            for param in table.values():
                for choice in param.choices:
                    assert f"`{choice}`" in policies_doc, (
                        f"parameter value {choice!r} missing from docs/POLICIES.md"
                    )

    def test_recovery_rules_table_names_real_methods_and_policies(self):
        from repro.api.specs import POLICY_PARAMS
        from repro.core import RollbackRecovery, SpliceRecovery
        from repro.policies import IncrementalRecovery, ReversibleRecovery
        from repro.sim.node import Node

        owners = {
            cls.__name__: cls
            for cls in (
                RollbackRecovery, SpliceRecovery, IncrementalRecovery, ReversibleRecovery, Node,
            )
        }
        policies_doc = read_docs()["docs/POLICIES.md"]
        section = policies_doc.split("## Recovery rules", 1)[1].split("\n## ", 1)[0]
        # two tables, told apart by their last column's heading
        tables: dict = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if line.startswith("| Rule"):
                rows = tables.setdefault(cells[-1], [])
            elif line.startswith("| ") and not line.startswith("| ---"):
                rows.append(cells)
        assert set(tables) == {"Composed by", "Lint rule (one site)"}
        rows = tables["Composed by"]
        assert len(rows) >= 6
        stated = set()
        for rule, _, method, composed_by in rows:
            owner, _, name = method.strip("`").partition(".")
            assert callable(getattr(owners[owner], name)), f"{rule}: no {method}"
            assert name in owners[owner].__dict__, f"{method} is inherited, not stated there"
            stated.add(name)
            named = re.findall(r"`([a-z]+)`", composed_by)
            assert named and set(named) <= set(POLICY_PARAMS), (rule, named)
        # the six rules the policies compose, and the node's two tails
        assert stated >= {
            "_unwind_results", "replay_entry", "_register_twin", "_abort_starved_tasks",
            "_repair_waiters", "recovered", "_mark_aborted", "ignore_result",
        }
        # the node-protocol table: real methods, each lint rule one the
        # site scan counts
        from repro.sim.task import SpawnRecord

        owners["SpawnRecord"] = SpawnRecord
        with open(
            os.path.join(REPO_ROOT, "tests", "policies", "test_boundary.py"), encoding="utf-8"
        ) as fh:
            scan = fh.read()
        protocol = set()
        for rule, _, method, lint in tables["Lint rule (one site)"]:
            owner, _, name = method.strip("`").partition(".")
            assert name in owners[owner].__dict__, f"{rule}: no {method}"
            protocol.add(f"{owner}.{name}")
            for lint_rule in re.findall(r"`([^`]+)`", lint):
                assert f'"{lint_rule}"' in scan, lint_rule
        assert protocol == {
            "Node.send", "Node.forward_result", "Node._launch", "Node._disarm",
            "SpawnRecord.fulfill", "SpawnRecord.unfulfill",
        }

    def test_policy_compare_scenarios_registered_and_documented(self):
        registered = set(all_scenarios())
        corpus = "\n".join(read_docs().values())
        for name in (
            "policy-compare-faultfree",
            "policy-compare-chaos",
            "policy-compare-load",
        ):
            assert name in registered
            assert name in corpus, f"policy scenario {name!r} missing from docs"

    def test_api_doc_grammar_names_the_new_policies(self):
        api_doc = read_docs()["docs/API.md"]
        assert "incremental" in api_doc
        assert "reversible" in api_doc


class TestReadmeDocsIndex:
    def test_readme_has_a_documentation_index(self):
        readme = read_docs()["README.md"]
        assert "## Documentation" in readme, (
            "README.md must open with a docs index section"
        )
        index = readme.split("## Documentation", 1)[1].split("## ", 1)[0]
        for rel in DOC_FILES:
            if rel == "README.md":
                continue
            assert f"({rel})" in index, (
                f"README docs index must link {rel} with a one-line summary"
            )

    def test_index_precedes_the_install_section(self):
        readme = read_docs()["README.md"]
        assert readme.index("## Documentation") < readme.index("## Install")


class TestReportReferences:
    def test_report_exports_are_pinned(self):
        import repro.report

        assert set(repro.report.__all__) == REPORT_EXPORTS, (
            "repro.report exports changed; update REPORT_EXPORTS and "
            "docs/REPORTS.md deliberately"
        )
        for name in REPORT_EXPORTS:
            assert hasattr(repro.report, name), name

    def test_docs_name_the_report_cli_verbs(self):
        readme = read_docs()["README.md"]
        reports_doc = read_docs()["docs/REPORTS.md"]
        for text in (readme, reports_doc):
            verbs = set(REPORT_CLI_REF.findall(text))
            assert {"list", "run", "compare"} <= verbs, (
                "README and REPORTS.md must document `report list`, "
                "`report run`, and `report compare`"
            )

    def test_report_cli_verbs_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["report", "list"],
            ["report", "run", "smoke"],
            ["report", "compare", "smoke", "--axis", "policy"],
        ):
            args = parser.parse_args(argv)
            assert args.command == "report"

    def test_every_report_scenario_reference_is_registered(self):
        registered = set(all_scenarios())
        for rel, text in read_docs().items():
            for name in REPORT_SCENARIO_REF.findall(text):
                assert name in registered, (
                    f"{rel} feeds unknown scenario {name!r} to repro report"
                )

    def test_reports_md_states_the_determinism_contract(self):
        reports_doc = read_docs()["docs/REPORTS.md"]
        assert "--replications" in reports_doc
        assert "bootstrap" in reports_doc.lower()
        assert "results/reports" in reports_doc

    def test_scenarios_md_documents_the_results_layout(self):
        scenarios_doc = read_docs()["docs/SCENARIOS.md"]
        assert "results/" in scenarios_doc and "reports/" in scenarios_doc
        assert "<spec-key>.json" in scenarios_doc
        assert "RunSpec" in scenarios_doc  # cache key derives from RunSpec JSON

    def test_readme_has_the_ci_quickstart(self):
        readme = read_docs()["README.md"]
        assert "confidence intervals" in readme
        assert "docs/REPORTS.md" in readme
