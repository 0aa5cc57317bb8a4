"""Adversarial schedule search: generate, mutate, run, shrink, ledger.

Two strategies share one deterministic harness:

``random``
    The PR 6 searcher: draw seeded random
    :class:`~repro.api.specs.NemesisSpec` schedules
    (:mod:`repro.faults.generate`), stop at the first violation, and
    greedily **shrink** it to a minimal reproducer.

``coverage``
    A feedback-driven fuzzer.  Every evaluated schedule is fingerprinted
    by its :class:`~repro.check.coverage.CoverageSignature` (oracle
    statuses, recovery-window shape, detector false positives, reissue
    reasons, bounded-recovery margin buckets).  Schedules that reach a
    **novel** signature join the corpus, and subsequent rounds *mutate
    that frontier* (:func:`repro.faults.generate.mutate_nemesis`)
    instead of drawing blind — with occasional random restarts so the
    search never wedges in one basin.  Every violation is shrunk (not
    just the first), and in **maximize** mode the searcher additionally
    steers toward the worst ``bounded-recovery`` margin seen, surfacing
    worst-case-recovery schedules even when nothing violates.

Everything is a pure function of ``(base spec, seed, config, strategy,
mode)``: the generator and mutator draw from one ``random.Random(seed)``,
shrink candidates enumerate in a fixed order, evaluations are memoized
by canonical nemesis spec (a schedule reached twice is never
re-simulated), and the simulator is deterministic — so the same search
always produces the byte-identical ledger.  Ledgers are canonical JSON
documents (schema ``repro-check/2``) written atomically under
``results/check/``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.specs import NemesisSpec, RunSpec
from repro.check.coverage import CoverageSignature, signature_from_context
from repro.check.oracles import (
    CheckConfig,
    CheckReport,
    build_context,
    evaluate_context,
)
from repro.config import RESULTS_DIR
from repro.errors import SpecError
from repro.faults.generate import (
    GENERATABLE_MODELS,
    check_models,
    mutate_nemesis,
    random_nemesis,
    shrink_candidates,
)
from repro.util.jsonio import compact_dumps, emit_json, sha256_hex

#: Ledger document schema tag.  ``repro-check/1`` ledgers (PR 6) lack
#: the strategy/corpus/lineage fields; see docs/CHECK.md for the
#: compatibility note.
CHECK_SCHEMA = "repro-check/2"

#: Default ledger directory.
DEFAULT_LEDGER_DIR = os.path.join(RESULTS_DIR, "check")

#: Search strategies and modes (CLI ``--strategy`` / ``--maximize``); the
#: first of each is the default.
STRATEGIES = ("random", "coverage")
MODES = ("violation", "maximize")

#: Probability of a random restart (instead of a frontier mutation) per
#: coverage round, and of steering to the worst-margin corpus entry in
#: maximize mode.  Fixed constants — part of the determinism contract.
RESTART_PROB = 0.25
STEER_PROB = 0.5


@dataclass(frozen=True)
class Evaluation:
    """One evaluated schedule: verdicts, signature, margin, memo state."""

    report: CheckReport
    signature: CoverageSignature
    #: Worst recovery-time/horizon ratio of the run (un-bucketed).
    margin: float
    #: True when this evaluation came from the memo (no simulation ran).
    cached: bool


class Evaluator:
    """Memoized schedule evaluation within one search/shrink call.

    Keyed by canonical nemesis spec string, so shrink steps and
    mutation rounds never re-simulate a schedule already evaluated —
    ``simulations`` counts actual simulator runs, ``hits`` the memo
    short-circuits.
    """

    def __init__(self, base: RunSpec, config: CheckConfig) -> None:
        self.base = base
        self.config = config
        self.simulations = 0
        self.hits = 0
        self._memo: Dict[str, Tuple[CheckReport, CoverageSignature, float]] = {}

    def evaluate(self, nemesis: NemesisSpec) -> Evaluation:
        from repro.api.session import execute

        key = nemesis.to_spec_str()
        hit = key in self._memo
        if not hit:
            self.simulations += 1
            spec = replace(self.base, nemesis=nemesis).validate()
            handle = execute(spec, collect_trace=True)
            ctx = build_context(handle, self.config)
            report = evaluate_context(ctx, self.config)
            signature = signature_from_context(ctx, report)
            self._memo[key] = (report, signature, ctx.recovery.worst_ratio)
        else:
            self.hits += 1
        report, signature, margin = self._memo[key]
        return Evaluation(report, signature, margin, cached=hit)


def shrink(
    base: RunSpec,
    nemesis: NemesisSpec,
    config: Optional[CheckConfig] = None,
    evaluator: Optional[Evaluator] = None,
) -> Tuple[NemesisSpec, List[Dict[str, Any]]]:
    """Greedily shrink a violating schedule to a minimal reproducer.

    Takes the first strictly-smaller candidate (fixed enumeration
    order) that still violates some oracle, and repeats until no
    candidate does.  Returns the minimal schedule and the shrink trail
    (one entry per accepted step).  Deterministic: same inputs, same
    minimal schedule, always.  Passing an :class:`Evaluator` shares its
    memo, so re-shrinking related schedules is nearly free.
    """
    config = config or CheckConfig()
    evaluator = evaluator or Evaluator(base, config)
    current = nemesis
    trail: List[Dict[str, Any]] = []
    while True:
        for candidate in shrink_candidates(current):
            report = evaluator.evaluate(candidate).report
            if report.violations:
                current = candidate
                trail.append(
                    {
                        "nemesis": candidate.to_spec_str(),
                        "violations": [v.oracle for v in report.violations],
                    }
                )
                break
        else:  # no candidate still violates: current is minimal
            return current, trail


@dataclass(frozen=True)
class SearchResult:
    """One completed search: every attempt, corpus, and violations."""

    base: RunSpec
    seed: int
    config: CheckConfig
    attempts: Tuple[Dict[str, Any], ...]
    violation: Optional[Dict[str, Any]]
    path: Optional[str] = None
    strategy: str = STRATEGIES[0]
    mode: str = MODES[0]
    rounds: int = 0
    #: Schedules that reached a novel coverage signature, in discovery
    #: order — the mutation frontier.
    corpus: Tuple[Dict[str, Any], ...] = ()
    #: Every distinct shrunk violation (``violation`` is the first).
    violations: Tuple[Dict[str, Any], ...] = ()
    #: The schedule with the worst bounded-recovery margin seen.
    worst: Optional[Dict[str, Any]] = None
    #: Actual simulator runs (memo hits excluded).
    simulations: int = 0

    @property
    def found(self) -> bool:
        return self.violation is not None

    @property
    def minimal(self) -> Optional[NemesisSpec]:
        if self.violation is None:
            return None
        return NemesisSpec.parse(self.violation["minimal"])

    def to_doc(self) -> Dict[str, Any]:
        """The canonical ledger document (deterministic, no timestamps)."""
        return {
            "schema": CHECK_SCHEMA,
            "base": self.base.to_json(),
            "seed": self.seed,
            "check": self.config.to_json(),
            "strategy": self.strategy,
            "mode": self.mode,
            "rounds": self.rounds,
            "attempts": list(self.attempts),
            "corpus": list(self.corpus),
            "violations": list(self.violations),
            "violation": self.violation,
            "worst": self.worst,
            "simulations": self.simulations,
        }

    def summary(self) -> str:
        lines: List[str] = []
        if self.violation is None:
            lines.append(
                f"clean: {len(self.attempts)} schedule(s) tried, "
                "no oracle violation"
            )
        else:
            lines.append(
                f"violation at attempt {self.violation['attempt']}: "
                f"{self.violation['nemesis']}\n"
                f"  oracles : {', '.join(self.violation['violations'])}\n"
                f"  minimal : {self.violation['minimal']} "
                f"({len(self.violation['shrink_trail'])} shrink step(s))"
            )
        if self.strategy == "coverage":
            lines.append(
                f"  corpus  : {len(self.corpus)} distinct signature(s), "
                f"{len(self.violations)} minimal reproducer(s), "
                f"{self.simulations} simulation(s)"
            )
        if self.worst is not None and self.worst["margin"] > 0:
            lines.append(
                f"  worst   : bounded-recovery margin "
                f"{self.worst['margin']:g} at attempt "
                f"{self.worst['attempt']}: {self.worst['nemesis']}"
            )
        return "\n".join(lines)


def ledger_path(
    base: RunSpec,
    seed: int,
    out_dir: str = DEFAULT_LEDGER_DIR,
    config: Optional[CheckConfig] = None,
    strategy: str = STRATEGIES[0],
    mode: str = MODES[0],
) -> str:
    """Deterministic ledger filename for one search.

    The hash folds the base RunSpec document *plus* the check config,
    strategy, and mode, so two searches over the same ``(base, seed)``
    with different configs or strategies can never overwrite each
    other's ledger.  (``repro-check/1`` paths hashed the base document
    only — see the compatibility note in docs/CHECK.md.)
    """
    ident_doc = {
        "base": base.to_json(),
        "check": (config or CheckConfig()).to_json(),
        "strategy": str(strategy),
        "mode": str(mode),
    }
    ident = sha256_hex(compact_dumps(ident_doc))
    return os.path.join(
        out_dir, f"search-seed{int(seed)}-{strategy}-{ident[:10]}.json"
    )


def _shrink_violation(
    attempt_index: int,
    nemesis: NemesisSpec,
    report: CheckReport,
    base: RunSpec,
    config: CheckConfig,
    evaluator: Evaluator,
) -> Tuple[str, Dict[str, Any]]:
    """Shrink one violating schedule into a full violation record."""
    minimal, trail = shrink(base, nemesis, config, evaluator=evaluator)
    final = evaluator.evaluate(minimal)
    record = {
        "attempt": attempt_index,
        "nemesis": nemesis.to_spec_str(),
        "violations": [v.oracle for v in report.violations],
        "minimal": minimal.to_spec_str(),
        "shrink_trail": trail,
        "verdicts": [v.to_json() for v in final.report.verdicts],
        "minimal_violations": [v.oracle for v in final.report.violations],
        "statuses": {v.oracle: v.status for v in final.report.verdicts},
        "signature": final.signature.to_json(),
        "margin": round(final.margin, 6),
    }
    return minimal.to_spec_str(), record


def search(
    base: Any,
    seed: int = 0,
    rounds: int = 12,
    models: Sequence[str] = GENERATABLE_MODELS,
    max_clauses: int = 2,
    config: Optional[CheckConfig] = None,
    out_dir: str = DEFAULT_LEDGER_DIR,
    write: bool = True,
    strategy: str = STRATEGIES[0],
    mode: str = MODES[0],
) -> SearchResult:
    """Search the schedule space of ``base`` for oracle violations.

    With ``strategy="random"`` (the default), draws up to ``rounds``
    schedules from ``random.Random(seed)`` and stops at the first
    violation, shrinking it.  With ``strategy="coverage"``, runs all
    ``rounds``: novel-signature schedules join the corpus, later rounds
    mutate that frontier, every violation is shrunk, and
    ``mode="maximize"`` additionally steers mutation toward the worst
    ``bounded-recovery`` margin seen.  The base spec's own nemesis is
    ignored — the searcher owns that axis.  With ``write`` (default) the ledger lands at
    :func:`ledger_path` under ``out_dir``.
    """
    from repro.api.session import Session

    for name, value, allowed in (("strategy", strategy, STRATEGIES), ("mode", mode, MODES)):
        if value not in allowed:
            raise SpecError(
                f"unknown search {name} {value!r}",
                field=f"check.{name}", value=value, allowed=allowed,
            )
    # A search that tries nothing finds nothing: an empty budget must not
    # read as "clean" to a caller gating on the outcome.
    rounds = int(rounds)
    for name, value in (("rounds", rounds), ("max_clauses", int(max_clauses))):
        if value < 1:
            raise SpecError(
                f"{name} must be at least 1, got {value}",
                field=f"check.{name}", value=value,
            )
    check_models(models)
    base = replace(Session.resolve(base), nemesis=NemesisSpec())
    config = config or CheckConfig()
    rng = random.Random(int(seed))
    procs = base.machine.processors
    evaluator = Evaluator(base, config)

    tried: List[Dict[str, Any]] = []
    corpus: List[Dict[str, Any]] = []
    violations: List[Dict[str, Any]] = []
    seen_signatures: Dict[str, int] = {}
    seen_minimal: set = set()
    worst: Optional[Dict[str, Any]] = None

    for index in range(rounds):
        origin, parent = "random", None
        if strategy == "coverage" and corpus and rng.random() >= RESTART_PROB:
            origin = "mutate"
            if mode == "maximize" and rng.random() < STEER_PROB:
                parent = max(
                    range(len(corpus)), key=lambda i: corpus[i]["margin"]
                )
            else:
                parent = rng.randrange(len(corpus))
            nemesis = mutate_nemesis(
                rng,
                NemesisSpec.parse(corpus[parent]["nemesis"]),
                procs,
                models=models,
                max_clauses=max_clauses,
            )
        else:
            nemesis = random_nemesis(
                rng, procs, models=models, max_clauses=max_clauses
            )
        ev = evaluator.evaluate(nemesis)
        key = ev.signature.key()
        novel = key not in seen_signatures
        tried.append(
            {
                "index": index,
                "nemesis": nemesis.to_spec_str(),
                "status": ev.report.status,
                "violations": [v.oracle for v in ev.report.violations],
                "origin": origin,
                "parent": parent,
                "signature": key,
                "margin": round(ev.margin, 6),
                "novel": novel,
                "cached": ev.cached,
            }
        )
        if novel:
            seen_signatures[key] = index
            corpus.append(
                {
                    "attempt": index,
                    "nemesis": nemesis.to_spec_str(),
                    "key": key,
                    "signature": ev.signature.to_json(),
                    "status": ev.report.status,
                    "margin": round(ev.margin, 6),
                }
            )
        if worst is None or ev.margin > worst["margin"]:
            worst = {
                "attempt": index,
                "nemesis": nemesis.to_spec_str(),
                "margin": round(ev.margin, 6),
            }
        if ev.report.violations:
            minimal_key, record = _shrink_violation(
                index, nemesis, ev.report, base, config, evaluator
            )
            if minimal_key not in seen_minimal:
                seen_minimal.add(minimal_key)
                violations.append(record)
            if strategy == "random":
                break

    result = SearchResult(
        base=base,
        seed=int(seed),
        config=config,
        attempts=tuple(tried),
        violation=violations[0] if violations else None,
        strategy=strategy,
        mode=mode,
        rounds=rounds,
        corpus=tuple(corpus),
        violations=tuple(violations),
        worst=worst,
        simulations=evaluator.simulations,
    )
    if write:
        path = ledger_path(base, seed, out_dir, config, strategy, mode)
        emit_json(result.to_doc(), path=path)
        result = replace(result, path=path)
    return result
