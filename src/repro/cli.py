"""Command-line interface.

    python -m repro list
    python -m repro run fib-10 --policy splice --processors 4 \\
        --fault 600:2 --fault 900:1 --seed 7 --trace
    python -m repro run balanced:4:2:30 --nemesis partition:start=0.3,dur=0.25,group=0-1
    python -m repro run fib-10 --policy splice --dry-run
    python -m repro run --spec-json spec.json
    python -m repro figures
    python -m repro exp list
    python -m repro exp run rollback-vs-splice --workers 4
    python -m repro exp show chaos-storm --json
    python -m repro exp runs
    python -m repro exp resume smoke-79ab12cd34ef --workers 4
    python -m repro faults list
    python -m repro faults describe partition
    python -m repro check list
    python -m repro check run balanced:4:2:30 --nemesis chaos:drop=0.15,notify=1
    python -m repro check search balanced:4:2:30 --seed 1 --rounds 10
    python -m repro check search balanced:3:2:10 --strategy coverage --rounds 24 \\
        --corpus-out corpus.json
    python -m repro check corpus run tests/baselines/corpus
    python -m repro report run rollback-vs-splice --replications 5
    python -m repro report compare rollback-vs-splice --axis policy

``run`` builds one canonical :class:`~repro.api.RunSpec` from its flags
(or loads one with ``--spec-json FILE``), then executes it and prints
the run summary (and optionally the recovery trace); ``--dry-run``
prints the resolved canonical spec JSON without running.  ``figures``
regenerates every paper figure; ``list`` shows the available workload
and policy names.  The ``exp`` subcommands drive the scenario registry
(:mod:`repro.exp`): ``exp list`` shows every registered scenario, ``exp
show`` prints one spec's axes and parameters (``--json`` emits the
fully-expanded RunSpec list), and ``exp run`` executes a sweep with
process-pool fan-out, on-disk result caching, and a crash-safe progress
ledger (see ``docs/SCENARIOS.md``).  ``exp runs`` lists ledgered runs
with their progress fractions and ``exp resume RUN-ID`` completes an
interrupted sweep from its ledger, re-running only the unfinished
points — byte-identical to an uninterrupted run (see
``docs/LEDGER.md``).  The ``faults`` subcommands drive the
fault-model registry (:mod:`repro.faults`): ``faults list`` shows
every registered nemesis model and ``faults describe`` one model's
parameters and spec grammar (see ``docs/FAULTS.md``).  The ``check``
subcommands drive the trace-oracle subsystem (:mod:`repro.check`):
``check list`` shows the oracle catalog, ``check run`` evaluates one
run — or, with ``--scenario``, a whole grid — against the invariants,
``check search`` hunts nemesis schedules for violations — blind random
draws or, with ``--strategy coverage``, feedback-driven frontier
mutation over coverage signatures — and shrinks them to minimal
reproducers with a deterministic ledger, and ``check corpus run``
replays a saved reproducer corpus as a regression gate (see
``docs/CHECK.md``).  The ``report`` subcommands drive the statistical
reporting subsystem
(:mod:`repro.report`): ``report run`` aggregates a (replicated) sweep
into per-point median/IQR/bootstrap-CI summaries, ``report compare``
pairs two scenarios — or two values of one axis — with delta confidence
intervals, and ``report list`` shows where each scenario's report
lands; Markdown + JSON pairs are written under ``results/reports/``
(see ``docs/REPORTS.md``).

Spec failures and unknown names exit with code 2 and a one-line
structured diagnostic (the offending token, the allowed values, and its
position) rather than a traceback — see :class:`~repro.errors.SpecError`
and the one handler in :func:`main`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from inspect import signature
from typing import List, Optional

from repro.api import Experiment, FaultSpec, NemesisSpec, PolicySpec, RunSpec, Session
from repro.api.specs import MACHINE_PARAMS, POLICY_PARAMS, SCHEDULERS, TOPOLOGIES
from repro.config import RESULTS_DIR
from repro.errors import ReproError, SpecError
from repro.util.stats import DEFAULT_LEVEL, DEFAULT_N_BOOT
from repro.util.tables import format_table
from repro.workloads.suite import WORKLOADS

#: argparse choices mirror the spec layer's allowed values, so adding a
#: policy/topology/scheduler in repro.api is enough for the CLI.
#: Policies take parameters (``replicated:K``, ``incremental:persist=MODE``),
#: so ``--policy`` validates through the spec grammar instead of a choices
#: list; this tuple is the bare-name catalog ``repro list`` renders.
POLICIES = tuple(POLICY_PARAMS)

#: The ``--policy`` help string, kept next to POLICIES so the CLI surface
#: and the spec grammar stay in sync (pinned by tests/test_docs.py).
POLICY_HELP = (
    "none | rollback | splice | reversible | "
    "incremental[:persist=volatile|durable|hybrid] | replicated[:K] "
    "(default: rollback)"
)

TRACE_KINDS = (
    "node_failed",
    "failure_detected",
    "recovery_reissue",
    "twin_created",
    "result_orphan_rerouted",
    "result_salvaged",
    "task_aborted",
)


def _parse_policy(text: str) -> str:
    """One ``--policy`` flag value, via the shared PolicySpec grammar.

    Returns the raw string (downstream spec-building re-parses it);
    parameterized specs like ``replicated:3`` or ``incremental:persist=
    durable`` can't pass an argparse choices list, so validation runs
    through the grammar and its structured diagnostic is re-raised
    verbatim as an ArgumentTypeError.
    """
    try:
        PolicySpec.parse(text)
    except SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _parse_fault(text: str):
    """One ``TIME:NODE`` flag value, via the shared FaultSpec grammar.

    Argparse renders type errors cleanly, so the SpecError message is
    re-raised verbatim as an ArgumentTypeError — the diagnostic is
    byte-identical to what the programmatic API raises.
    """
    from repro.sim import Fault

    try:
        spec = FaultSpec.parse(text, mode="time")
    except SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if spec.mode != "time":
        # a "frac:" prefix would silently turn the fraction into an
        # absolute sim time; fractions belong to scenario grids
        raise argparse.ArgumentTypeError(
            f"--fault takes absolute TIME:NODE, not {text!r}"
        )
    if len(spec.entries) != 1:
        raise argparse.ArgumentTypeError(
            f"one fault per --fault flag (repeat the flag), got {text!r}"
        )
    return Fault(*spec.entries[0])


def _default(name: str) -> str:
    """The help of machine flag ``name``: its default, read from MACHINE_PARAMS."""
    return "default: " + MACHINE_PARAMS[name].describe_default()


#: The run-shaping flags, declared once (argparse keywords per flag, in
#: ``--help`` order) for every verb that builds a RunSpec from flags.
#: Each name is also the :class:`~repro.api.Experiment` setter it feeds.
#: No row sets a default, so an absent flag reads None: the real defaults
#: are owned by RunSpec/MachineSpec in repro.api (the machine rows' help
#: reads MACHINE_PARAMS), and *any* explicitly-given flag — even at its
#: default value — conflicts with a whole-spec source (--spec-json,
#: --scenario; see _whole_spec).
SPEC_FLAGS = {
    "policy": dict(type=_parse_policy, metavar="POLICY", help=POLICY_HELP),
    "processors": dict(type=int, help=_default("processors")),
    "topology": dict(choices=TOPOLOGIES, help=_default("topology")),
    "scheduler": dict(choices=SCHEDULERS, help=_default("scheduler")),
    "seed": dict(type=int, help="default: 0"),
    "replication": dict(type=int, help=f"k for --policy replicated ({_default('replication')})"),
    "fault": dict(
        type=_parse_fault,
        action="append",
        metavar="TIME:NODE",
        help="kill NODE at TIME (repeatable)",
    ),
    "nemesis": dict(
        metavar="SPEC",
        help=(
            "fault-model composition, e.g. "
            "'partition:start=0.3,dur=0.25,group=0-1' (see `repro faults list`; "
            "×T params are fractions of the fault-free baseline makespan)"
        ),
    ),
    "arrivals": dict(
        metavar="SPEC",
        help=(
            "open-loop arrival process, e.g. "
            "'poisson:rate=0.01,horizon=1500,cap=6,overflow=backpressure' "
            "(processes: poisson, bursty, diurnal; see docs/LOAD.md)"
        ),
    ),
}


#: The flags the sweep verbs (``exp run|runs|resume``, ``report``) share.
SWEEP_FLAGS = {
    "workers": dict(type=int, default=1, help="process-pool width (1 = serial)"),
    "cache_dir": dict(default=RESULTS_DIR, help="result-cache root (default: ./%(default)s)"),
    "ledger_dir": dict(
        metavar="DIR", help="ledger directory (default: <cache-dir>/ledger)"
    ),
    "json": dict(action="store_true", help="print the raw result JSON payload"),
}


def _flags(parser, table, *names: str, **help_for: str) -> None:
    """Declare the named flags of ``table`` on ``parser``, in order.

    A keyword replaces that flag's help text where a verb words the
    same flag for its own context (``check run --nemesis``).
    """
    for name in names:
        kwargs = dict(table[name])
        kwargs["help"] = help_for.get(name, kwargs["help"])
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)
    if table is SPEC_FLAGS:
        parser.set_defaults(spec_flags=names)


def build_parser() -> argparse.ArgumentParser:
    from repro.check import STRATEGIES, CheckConfig, search

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lin & Keller (ICPP 1986) distributed-recovery reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and policies").set_defaults(handler=cmd_list)
    figures = sub.add_parser("figures", help="regenerate every paper figure")
    figures.set_defaults(handler=cmd_figures)

    run = sub.add_parser("run", help="run a workload on the simulated machine")
    run.add_argument(
        "workload",
        nargs="?",
        default=None,
        help=(
            "workload spec: a name from `repro list` or a spec string "
            "(balanced:DEPTH:FANOUT:WORK, prog:NAME:ARG:..., ...)"
        ),
    )
    _flags(run, SPEC_FLAGS, *SPEC_FLAGS)
    run.add_argument(
        "--spec-json",
        default=None,
        metavar="FILE",
        help="load the RunSpec from a canonical JSON document ('-' = stdin) "
        "instead of building it from flags",
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved canonical RunSpec JSON and exit without running",
    )
    run.add_argument("--trace", action="store_true", help="print recovery trace")
    run.set_defaults(handler=cmd_run)

    exp = sub.add_parser("exp", help="scenario registry: declarative sweeps")
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)
    exp_sub.add_parser("list", help="list registered scenarios").set_defaults(handler=cmd_exp_list)
    exp_show = exp_sub.add_parser("show", help="print one scenario's spec")
    exp_show.add_argument("scenario", help="scenario name (see `repro exp list`)")
    exp_show.add_argument(
        "--json",
        action="store_true",
        help="emit the fully-expanded point list (with canonical RunSpecs "
        "for machine scenarios) as canonical JSON",
    )
    exp_show.set_defaults(handler=cmd_exp_show)
    exp_run = exp_sub.add_parser("run", help="run a scenario sweep")
    exp_run.add_argument("scenario", help="scenario name (see `repro exp list`)")
    _flags(exp_run, SWEEP_FLAGS, "workers", "cache_dir")
    exp_run.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )
    exp_run.add_argument(
        "--force", action="store_true", help="recompute even if cached"
    )
    _flags(
        exp_run, SWEEP_FLAGS, "json", "ledger_dir",
        ledger_dir="crash-safe progress-ledger directory (default: "
        "<cache-dir>/ledger; see `repro exp resume`)",
    )
    exp_run.add_argument(
        "--no-ledger",
        action="store_true",
        help="record no progress ledger (the run cannot be resumed)",
    )
    exp_run.set_defaults(handler=cmd_exp_run)

    exp_runs = exp_sub.add_parser(
        "runs", help="list ledgered sweep runs and their progress"
    )
    _flags(
        exp_runs, SWEEP_FLAGS, "cache_dir", "ledger_dir", "json",
        cache_dir="result-cache root the default ledger dir derives from "
        "(default: ./%(default)s)",
        json="emit the run list as canonical JSON",
    )
    exp_runs.set_defaults(handler=cmd_exp_runs)

    exp_resume = exp_sub.add_parser(
        "resume", help="complete an interrupted sweep from its ledger"
    )
    exp_resume.add_argument(
        "run_id", help="run identifier (see `repro exp runs`)"
    )
    _flags(exp_resume, SWEEP_FLAGS, "workers", "cache_dir")
    exp_resume.add_argument(
        "--no-cache", action="store_true", help="do not write the result cache"
    )
    _flags(exp_resume, SWEEP_FLAGS, "ledger_dir", "json")
    exp_resume.set_defaults(handler=cmd_exp_resume)

    faults = sub.add_parser("faults", help="fault-model (nemesis) registry")
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_list = faults_sub.add_parser("list", help="list registered fault models")
    faults_list.set_defaults(handler=cmd_faults_list)
    faults_desc = faults_sub.add_parser(
        "describe", help="print one fault model's parameters and an example spec"
    )
    faults_desc.add_argument("model", help="model name (see `repro faults list`)")
    faults_desc.set_defaults(handler=cmd_faults_describe)

    check = sub.add_parser(
        "check", help="trace oracles and adversarial schedule search"
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)
    check_list = check_sub.add_parser("list", help="list the oracle catalog")
    check_list.set_defaults(handler=cmd_check_list)

    def _check_common(p) -> None:
        p.add_argument(
            "--horizon", type=float, default=CheckConfig.horizon_frac, metavar="FRAC",
            help="bounded-recovery horizon as a multiple of the baseline "
            "makespan (default: %(default)s)",
        )
        p.add_argument(
            "--horizon-time", type=float, default=None, metavar="TIME",
            help="absolute bounded-recovery horizon in sim-time units "
            "(overrides --horizon; the default for open-loop runs, where "
            "no finite baseline makespan exists)",
        )
        p.add_argument(
            "--json", action="store_true", help="emit canonical JSON"
        )

    check_run = check_sub.add_parser(
        "run", help="run one spec (or a whole scenario) under the oracles"
    )
    check_run.add_argument(
        "workload", nargs="?", default=None,
        help="workload spec (omit when using --scenario)",
    )
    check_run.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="check every machine point of a registered scenario instead "
        "of one flag-built spec",
    )
    _flags(
        check_run, SPEC_FLAGS,
        "policy", "processors", "seed", "fault", "nemesis", "arrivals",
        nemesis="fault-model composition to check under (see `repro faults list`)",
        arrivals="open-loop arrival process to check under (see docs/LOAD.md)",
    )
    check_run.add_argument(
        "--oracle", action="append", default=[], metavar="NAME",
        help="evaluate only this oracle (repeatable; default: all; "
        "see `repro check list`)",
    )
    _check_common(check_run)
    check_run.set_defaults(handler=cmd_check_run)

    check_search = check_sub.add_parser(
        "search", help="search random nemesis schedules for oracle violations"
    )
    check_search.add_argument(
        "workload", nargs="?", default=None,
        help="base workload spec (omit when using --scenario)",
    )
    check_search.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="take the base spec from a registered scenario's first machine "
        "point (faults and nemesis cleared — the searcher owns that axis)",
    )
    _flags(check_search, SPEC_FLAGS, "policy", "processors")
    # search()'s signature owns these flags' defaults
    knobs = {name: p.default for name, p in signature(search).parameters.items()}
    check_search.add_argument(
        "--seed", type=int, default=knobs["seed"], help="generator seed (default: %(default)s)"
    )
    check_search.add_argument(
        "--models", default=None, metavar="M1,M2",
        help="comma-separated fault models the generator may draw "
        "(default: all generatable models)",
    )
    check_search.add_argument(
        "--max-clauses", type=int, default=knobs["max_clauses"], metavar="N",
        help="max composed clauses per schedule (default: %(default)s)",
    )
    check_search.add_argument(
        "--strategy", choices=STRATEGIES, default=knobs["strategy"],
        help="schedule generation: blind random draws (default) or "
        "coverage-guided frontier mutation (see docs/CHECK.md)",
    )
    check_search.add_argument(
        "--rounds", type=int, default=knobs["rounds"], metavar="N",
        help="schedules to evaluate (default: %(default)s)",
    )
    check_search.add_argument(
        "--maximize", action="store_true",
        help="steer coverage mutation toward the worst bounded-recovery "
        "margin (no violation needed; reported as `worst`)",
    )
    check_search.add_argument(
        "--corpus-out", default=None, metavar="PATH",
        help="also write the shrunk reproducers as a repro-corpus/1 "
        "document (replayable via `repro check corpus run`)",
    )
    check_search.add_argument(
        "--out-dir", default=knobs["out_dir"], metavar="DIR",
        help="ledger directory (default: %(default)s)",
    )
    check_search.add_argument(
        "--no-write", action="store_true", help="search only; write no ledger"
    )
    check_search.add_argument(
        "--expect", choices=("violation", "clean"), default=None,
        help="fail (exit 1) unless the search ends this way — the CI gate",
    )
    _check_common(check_search)
    check_search.set_defaults(handler=cmd_check_search)

    check_corpus = check_sub.add_parser(
        "corpus", help="replay a pinned reproducer corpus as a regression gate"
    )
    corpus_sub = check_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_run = corpus_sub.add_parser(
        "run", help="re-execute every corpus entry; fail on any regression"
    )
    corpus_run.add_argument(
        "path",
        help="a repro-corpus/1 JSON file, or a directory of them "
        "(e.g. tests/baselines/corpus)",
    )
    corpus_run.add_argument(
        "--json", action="store_true", help="emit canonical JSON"
    )
    corpus_run.set_defaults(handler=cmd_check_corpus)

    check_audit = check_sub.add_parser(
        "audit", help="run the mutant protocols under the oracles: the kill matrix"
    )
    check_audit.add_argument(
        "--mutant", default=None, metavar="NAME",
        help="audit only this mutant (default: every one; docs/CHECK.md lists them)",
    )
    check_audit.set_defaults(handler=cmd_check_audit)

    report = sub.add_parser(
        "report", help="statistical reports over (replicated) scenario sweeps"
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_sub.add_parser(
        "list", help="list scenarios and where their reports land"
    ).set_defaults(handler=cmd_report_list)

    def _report_common(p) -> None:
        p.add_argument(
            "--replications", type=int, default=None, metavar="N",
            help="replicates per grid point (default: the registered spec's, "
            "usually 1); replicate seeds are derived deterministically",
        )
        _flags(
            p, SWEEP_FLAGS, "workers", "cache_dir",
            cache_dir="sweep result-cache root (default: ./%(default)s)",
        )
        p.add_argument(
            "--out-dir", default=None, metavar="DIR",
            help="where the Markdown+JSON pair is written "
            "(default: <cache-dir>/reports)",
        )
        p.add_argument(
            "--force", action="store_true",
            help="recompute the sweep even if cached",
        )
        p.add_argument(
            "--level", type=float, default=DEFAULT_LEVEL,
            help="confidence level for the bootstrap intervals (default: %(default)s)",
        )
        p.add_argument(
            "--boot", type=int, default=DEFAULT_N_BOOT, metavar="B",
            help="bootstrap resamples (default: %(default)s)",
        )
        p.add_argument(
            "--no-write", action="store_true",
            help="print only; write no report files",
        )
        _flags(
            p, SWEEP_FLAGS, "json",
            json="print the canonical report JSON instead of the Markdown",
        )

    report_run = report_sub.add_parser(
        "run", help="aggregate one scenario's sweep into a statistical report"
    )
    report_run.add_argument("scenario", help="scenario name (see `repro exp list`)")
    _report_common(report_run)
    report_run.set_defaults(handler=cmd_report_run)
    report_cmp = report_sub.add_parser(
        "compare",
        help="pair two scenarios (or two values of one axis) with delta CIs",
    )
    report_cmp.add_argument("scenario", help="base scenario name")
    report_cmp.add_argument(
        "other", nargs="?", default=None,
        help="second scenario (cells joined on the shared axes); omit to "
        "compare within one scenario via --axis",
    )
    report_cmp.add_argument(
        "--axis", default=None,
        help="within-scenario comparison axis (e.g. policy); the baseline "
        "is the axis's first value unless --baseline is given",
    )
    report_cmp.add_argument(
        "--baseline", default=None,
        help="baseline value of --axis (default: its first value)",
    )
    _report_common(report_cmp)
    report_cmp.set_defaults(handler=cmd_report_compare)

    return parser


def cmd_list(args, out) -> int:
    rows = [[name, WORKLOADS[name]().name] for name in sorted(WORKLOADS)]
    print(format_table(["workload", "builds"], rows, title="Workloads"), file=out)
    print(file=out)
    print(
        format_table(
            ["policy", "class"],
            [[n, type(PolicySpec.parse(n).build()).__name__] for n in sorted(POLICIES)],
            title="Policies",
        ),
        file=out,
    )
    return 0


def cmd_figures(args, out) -> int:
    from repro.analysis.figures import all_figures

    status = 0
    for report in all_figures():
        print(report, file=out)
        print(file=out)
        if not report.ok:
            status = 1
    return status


def _runspec_from_flags(args, alternative: str) -> RunSpec:
    """Build a RunSpec from whichever :data:`SPEC_FLAGS` the verb declared.

    Only explicitly-given flags reach the builder; the defaults are
    owned by RunSpec/MachineSpec in repro.api, not restated here.
    Bare `replicated` defers k to the machine's replication factor,
    so --replication governs it without a special case.
    """
    if args.workload is None:
        raise SpecError(
            f"a workload (or {alternative}) is required", field="workload"
        )
    builder = Experiment().workload(args.workload)
    for name in args.spec_flags:
        given = getattr(args, name)
        if given is None:
            continue
        if name == "fault":
            for fault in given:
                builder.fault(fault.time, fault.node, mode="time")
        else:
            getattr(builder, name)(given)
    return builder.build()


def _whole_spec(args, source: str, field: str, remedy: str) -> None:
    """Refuse what a whole-spec source (``run --spec-json``, ``check
    --scenario``) would silently ignore: the workload argument, and any
    spec flag the verb declared that was given explicitly — even at its
    default value — since overlaying (or worse, ignoring) it would run a
    different spec than the one named."""
    if args.workload is not None:
        raise SpecError(
            f"{source} replaces the workload argument; give one or the other",
            field=field, value=args.workload,
        )
    given = [f"--{name}" for name in args.spec_flags if getattr(args, name) is not None]
    if given:
        raise SpecError(
            f"{source} carries the whole experiment; drop {', '.join(given)} "
            f"or {remedy} instead",
            field=field, value=given,
        )


def _runspec_from_args(args) -> RunSpec:
    """Resolve the ``repro run`` flags (or --spec-json) into a RunSpec."""
    if args.spec_json is None:
        return _runspec_from_flags(args, "--spec-json FILE")
    _whole_spec(args, "--spec-json", "spec-json", "edit the JSON document")
    from repro.util.jsonio import parse_json

    try:
        if args.spec_json == "-":
            payload = parse_json(sys.stdin.read())
        else:
            with open(args.spec_json, "r", encoding="utf-8") as fh:
                payload = parse_json(fh.read())
    except (OSError, ValueError) as exc:
        raise SpecError(
            f"cannot read RunSpec JSON from {args.spec_json}: {exc}",
            field="spec-json", value=args.spec_json,
        ) from None
    return RunSpec.from_json(payload).validate()


def cmd_run(args, out) -> int:
    spec = _runspec_from_args(args)
    if args.dry_run:
        print(spec.canonical_json(), file=out, end="")
        return 0
    handle = Session(collect_trace=args.trace).run(spec)
    result = handle.result
    print(result.summary(), file=out)
    metrics_rows = result.metrics.summary_rows()
    print(format_table(["metric", "value"], metrics_rows), file=out)
    if args.trace:
        print("\nRecovery trace:", file=out)
        text = result.trace.render(kinds=TRACE_KINDS)
        print(text if text else "  (no recovery events)", file=out)
    injected = bool(spec.faults) or bool(spec.nemesis)
    return 0 if result.correct or (not injected and result.completed) else 1


def cmd_exp_list(args, out) -> int:
    from repro.exp import all_scenarios

    rows = [
        [spec.name, spec.runner, spec.n_points(), spec.title]
        for spec in all_scenarios().values()
    ]
    print(
        format_table(["scenario", "runner", "points", "title"], rows, title="Scenarios"),
        file=out,
    )
    return 0


def cmd_exp_show(args, out) -> int:
    from repro.exp import expand, get_scenario

    spec = get_scenario(args.scenario)
    if args.json:
        from repro.exp.scenario import point_docs
        from repro.util.jsonio import emit_json

        payload = {
            "scenario": spec.name,
            "title": spec.title,
            "runner": spec.runner,
            "key": spec.key(),
            "n_points": spec.n_points(),
            "points": point_docs(spec),
        }
        emit_json(payload, out=out)
        return 0
    print(f"{spec.name}: {spec.title}", file=out)
    print(f"  runner:  {spec.runner}   points: {spec.n_points()}   key: {spec.key()}", file=out)
    print(f"  {spec.description}", file=out)
    print("  base:", file=out)
    for k, v in sorted(spec.base.items()):
        print(f"    {k} = {v!r}", file=out)
    print("  axes:", file=out)
    for axis, values in spec.axes.items():
        print(f"    {axis} = {list(values)!r}", file=out)
    seeds = sorted({p.seed for p in expand(spec)})
    preview = ", ".join(str(s) for s in seeds[:3])
    print(f"  point seeds: {len(seeds)} distinct ({preview}{', ...' if len(seeds) > 3 else ''})", file=out)
    return 0


def _exp_ledger_dir(args) -> str:
    """The ledger directory of the ``exp`` verbs: an explicit
    ``--ledger-dir``, else the one riding along with the cache at
    ``<cache-dir>/ledger``."""
    if args.ledger_dir is not None:
        return args.ledger_dir
    return os.path.join(args.cache_dir, "ledger")


def _print_sweep(sweep, spec, args, out) -> int:
    """Shared ``exp run``/``exp resume`` output + failure exit logic."""
    from repro.exp import sweep_table

    if args.json:
        from repro.util.jsonio import emit_json

        emit_json(sweep.payload(), out=out)
    else:
        print(sweep_table(sweep, spec), file=out)
        if sweep.cache_path:
            source = "hit" if sweep.cache_hit else "miss, computed"
            print(f"cache: {source} ({sweep.cache_path})", file=out)
        if sweep.ledger_path:
            resumed = (
                f", resumed {sweep.resumed_points} point(s)"
                if sweep.resumed_points is not None
                else ""
            )
            print(
                f"ledger: {sweep.ledger_path} (run {sweep.run_id}{resumed})",
                file=out,
            )
    failed = [
        p["index"]
        for p in sweep.points
        if p["result"].get("ok") is False
        or p["result"].get("correct") is False
        or p["result"].get("completed") is False
    ]
    if failed and not spec.expect_failures:
        print(f"points with failures: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_exp_run(args, out) -> int:
    from repro.exp import get_scenario, run_scenario

    spec = get_scenario(args.scenario)
    # unless a ledger directory is named, --no-ledger and --no-cache (an
    # explicitly ephemeral run) record no ledger
    unledgered = args.ledger_dir is None and (args.no_ledger or args.no_cache)
    sweep = run_scenario(
        spec,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        force=args.force,
        ledger_dir=None if unledgered else _exp_ledger_dir(args),
    )
    return _print_sweep(sweep, spec, args, out)


def cmd_exp_runs(args, out) -> int:
    from repro.exp import LEDGER_SCHEMA, list_runs

    ledger_dir = _exp_ledger_dir(args)
    states = list_runs(ledger_dir)
    if args.json:
        from repro.util.jsonio import emit_json

        payload = {
            "schema": LEDGER_SCHEMA,
            "ledger_dir": ledger_dir,
            "runs": [state.summary_doc() for state in states],
        }
        emit_json(payload, out=out)
        return 0
    if not states:
        print(f"no ledgered runs under {ledger_dir}", file=out)
        return 0
    rows = [
        [
            state.run_id,
            state.scenario,
            f"{len(state.finished)}/{state.n_points}",
            f"{state.progress():.0%}",
            ",".join(str(i) for i in sorted(state.failed)) or "-",
            state.status,
        ]
        for state in states
    ]
    print(
        format_table(
            ["run", "scenario", "finished", "progress", "failed", "status"],
            rows,
            title=f"Ledgered runs ({ledger_dir})",
        ),
        file=out,
    )
    print(
        "\n`repro exp resume RUN-ID` completes a resumable run "
        "(docs/LEDGER.md has the semantics)",
        file=out,
    )
    return 0


def cmd_exp_resume(args, out) -> int:
    from repro.exp import get_scenario, resume_run

    sweep = resume_run(
        args.run_id,
        ledger_dir=_exp_ledger_dir(args),
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    return _print_sweep(sweep, get_scenario(sweep.scenario), args, out)


def cmd_faults_list(args, out) -> int:
    from repro.faults import all_models

    rows = [
        [info.name, ",".join(info.params), info.summary]
        for info in all_models().values()
    ]
    print(
        format_table(["model", "params", "summary"], rows, title="Fault models"),
        file=out,
    )
    print(
        "\ncompose models with `+` in a nemesis spec, e.g.\n"
        "  crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1+jitter:max=25\n"
        "(`repro faults describe MODEL` shows parameters; docs/FAULTS.md "
        "has the catalog)",
        file=out,
    )
    return 0


def cmd_faults_describe(args, out) -> int:
    from repro.faults import get_model

    info = get_model(args.model)
    print(f"{info.name}: {info.summary}", file=out)
    rows = [
        [
            name,
            param.kind + (" ×T" if param.fraction else ""),
            param.describe_default(),
            param.doc,
        ]
        for name, param in info.params.items()
    ]
    print(format_table(["param", "type", "default", "doc"], rows), file=out)
    print(
        f"\nexample: {info.example}\n"
        "(×T params are fractions of the baseline makespan, like fault_frac)",
        file=out,
    )
    return 0


def cmd_check_list(args, out) -> int:
    from repro.check import all_oracles

    rows = [[info.name, info.summary] for info in all_oracles().values()]
    print(format_table(["oracle", "invariant"], rows, title="Trace oracles"), file=out)
    print(
        "\n`repro check run WORKLOAD [--nemesis SPEC]` evaluates a run, "
        "`repro check run --scenario NAME` a whole grid,\n"
        "`repro check search WORKLOAD --seed N` hunts for violating "
        "schedules and shrinks them (docs/CHECK.md has the semantics)",
        file=out,
    )
    return 0


def _check_config(args):
    from repro.check import CheckConfig

    return CheckConfig(
        horizon_frac=args.horizon,
        horizon_time=args.horizon_time,
        oracles=tuple(getattr(args, "oracle", ())),  # check search takes no --oracle
    )


def _check_specs(args) -> List[RunSpec]:
    """What a ``check`` verb runs on: the one spec its flags build, or
    every machine point of ``--scenario NAME`` as validated RunSpecs."""
    if args.scenario is None:
        return [_runspec_from_flags(args, "--scenario NAME")]
    _whole_spec(args, "--scenario", "check.scenario", "give a workload argument")
    from repro.exp import expand, get_scenario, point_runspec

    spec = get_scenario(args.scenario)
    if spec.runner != "machine":
        raise SpecError(
            f"scenario {args.scenario!r} uses the {spec.runner!r} runner; only "
            "machine scenarios are checkable",
            field="check.scenario", value=args.scenario,
        )
    return [point_runspec(spec, point).validate() for point in expand(spec)]


def cmd_check_run(args, out) -> int:
    from repro.check import check_spec
    from repro.util.jsonio import emit_json

    config = _check_config(args)
    specs = _check_specs(args)
    reports = [check_spec(spec, config) for spec in specs]
    if args.json:
        payload = [
            {"spec": spec.to_json(), "report": report.to_json()}
            for spec, (_, report) in zip(specs, reports)
        ]
        emit_json(payload if args.scenario else payload[0], out=out)
    elif args.scenario is not None:
        rows = [
            [
                spec.workload.to_spec_str(),
                spec.policy.to_spec_str(),
                spec.nemesis.to_spec_str() or "-",
                ";".join(f"{f:g}:{n}" for f, n in spec.faults.entries) or "-",
                report.status,
                ",".join(v.oracle for v in report.violations) or "-",
            ]
            for spec, (_, report) in zip(specs, reports)
        ]
        print(
            format_table(
                ["workload", "policy", "nemesis", "faults", "status", "violated"],
                rows,
                title=f"Oracle verdicts: {args.scenario}",
            ),
            file=out,
        )
    else:
        spec, (handle, report) = specs[0], reports[0]
        print(handle.result.summary(), file=out)
        print(report.table(), file=out)
    return 0 if all(report.ok for _, report in reports) else 1


def cmd_check_search(args, out) -> int:
    from repro.check import search
    from repro.util.jsonio import emit_json

    base = _check_specs(args)[0]
    if args.scenario is not None:
        # the scenario's own schedule goes: the searcher owns that axis
        base = replace(base, faults=FaultSpec(), nemesis=NemesisSpec())
    models = {}  # absent (or empty): search()'s own pool
    if args.models:
        models["models"] = tuple(m.strip() for m in args.models.split(",") if m.strip())
    result = search(
        base,
        seed=args.seed,
        rounds=args.rounds,
        max_clauses=args.max_clauses,
        config=_check_config(args),
        out_dir=args.out_dir,
        write=not args.no_write,
        strategy=args.strategy,
        mode="maximize" if args.maximize else "violation",
        **models,
    )
    corpus_path = None
    if args.corpus_out:
        from repro.check import write_corpus

        corpus_path = write_corpus(result, args.corpus_out)
    if args.json:
        emit_json(result.to_doc(), out=out)
    else:
        print(result.summary(), file=out)
        if result.path:
            print(f"ledger: {result.path}", file=out)
        if corpus_path:
            print(f"corpus: {corpus_path}", file=out)
    if args.expect == "violation" and not result.found:
        print("expected a violation; search came back clean", file=sys.stderr)
        return 1
    if args.expect == "clean" and result.found:
        print("expected a clean search; found a violation", file=sys.stderr)
        return 1
    return 0


def cmd_check_corpus(args, out) -> int:
    from repro.check import run_corpus
    from repro.util.jsonio import emit_json

    report = run_corpus(args.path)
    if args.json:
        emit_json(report.to_json(), out=out)
    else:
        print(report.summary(), file=out)
    return 0 if report.ok else 1


def cmd_check_audit(args, out) -> int:
    from repro.check import ORACLE_NAMES
    from repro.faults.mutants import audit, matrix_rows

    kills = audit(args.mutant)
    print(
        format_table(
            ["mutant", "method"] + list(ORACLE_NAMES) + ["verdict"],
            matrix_rows(kills),
            title="Kill matrix: runs whose oracle status the mutant moved",
        ),
        file=out,
    )
    killed = sum(1 for cells in kills.values() if cells)
    print(f"\nkilled {killed} of {len(kills)} mutants", file=out)
    return 0


def cmd_report_list(args, out) -> int:
    from repro.exp import all_scenarios
    from repro.report import DEFAULT_OUT_DIR

    rows = [
        [spec.name, spec.runner, spec.n_cells(), spec.replications,
         f"{spec.name}.md"]
        for spec in all_scenarios().values()
    ]
    print(
        format_table(
            ["scenario", "runner", "cells", "replications", "report file"],
            rows,
            title=f"Reports (written under {DEFAULT_OUT_DIR}/)",
        ),
        file=out,
    )
    print(
        "\n`repro report run NAME --replications N` aggregates a replicated "
        "sweep;\n`repro report compare NAME --axis AXIS` (or `NAME OTHER`) "
        "adds delta CIs\n(docs/REPORTS.md has the methodology)",
        file=out,
    )
    return 0


def _report_options(args) -> dict:
    """The ``_report_common`` flags as run_report/run_compare keywords."""
    out_dir = args.out_dir
    if args.no_write:
        out_dir = None
    elif out_dir is None:
        out_dir = os.path.join(args.cache_dir, "reports")
    return dict(
        replications=args.replications,
        workers=args.workers,
        cache_dir=args.cache_dir,
        out_dir=out_dir,
        force=args.force,
        level=args.level,
        n_boot=args.boot,
    )


def _print_report(result, args, out) -> None:
    from repro.util.jsonio import emit_json

    if args.json:
        emit_json(result.payload, out=out)
        return
    print(result.markdown, file=out, end="")
    if result.markdown_path:
        print(f"\nwrote {result.markdown_path}", file=out)
        print(f"wrote {result.json_path}", file=out)


def cmd_report_run(args, out) -> int:
    from repro.report import run_report

    result = run_report(args.scenario, **_report_options(args))
    _print_report(result, args, out)
    return 0


def _coerce_axis_value(spec, axis: Optional[str], raw: Optional[str]):
    """Match a --baseline string against the axis's typed values."""
    if raw is None or axis is None or axis not in spec.axes:
        return raw
    for value in spec.axes[axis]:
        if str(value) == raw:
            return value
    return raw  # let split_compare produce the structured diagnostic


def cmd_report_compare(args, out) -> int:
    from repro.exp import get_scenario
    from repro.report import run_compare

    baseline = _coerce_axis_value(
        get_scenario(args.scenario), args.axis, args.baseline
    )
    result = run_compare(
        args.scenario,
        other=args.other,
        axis=args.axis,
        baseline=baseline,
        **_report_options(args),
    )
    _print_report(result, args, out)
    return 0


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except (KeyError, ReproError) as exc:
        # The one diagnostic site: one line on stderr, never a traceback.
        # A registry lookup reports an unknown name as KeyError(message),
        # whose str() is the message's repr, hence args[0].  Exit 2 for an
        # unknown name or a malformed spec; under `exp`, any other failure
        # is a runtime one (unwritable cache/ledger, failed points): exit 1.
        unknown_name = isinstance(exc, KeyError)
        print(f"error: {exc.args[0] if unknown_name else exc}", file=sys.stderr)
        usage = unknown_name or isinstance(exc, SpecError)
        return 1 if args.command == "exp" and not usage else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
