"""Trace oracles and coverage-guided adversarial schedule search.

The ``check`` subsystem turns the fault layer from replay into an
adversary.  The **oracle layer** (:mod:`repro.check.oracles`) evaluates
named invariants — result agreement, no orphan commits, checkpoint
coverage, causal delivery, bounded recovery, and the weak-recovery
classifier — over a run's trace, each returning a structured
:class:`Verdict` with the violating trace window.  The **coverage
layer** (:mod:`repro.check.coverage`) fingerprints each run with a
deterministic :class:`CoverageSignature` — the feedback signal.  The
**search layer** (:mod:`repro.check.search`) hunts nemesis schedules
either blind (``strategy="random"``) or coverage-guided
(``strategy="coverage"``: keep a corpus of novel-signature schedules,
mutate that frontier, shrink every violation, optionally maximize the
worst bounded-recovery margin), writing a deterministic
``repro-check/2`` ledger under ``results/check/``.  The **corpus
layer** (:mod:`repro.check.corpus`) saves the shrunk reproducers and
replays them as a regression gate.

See ``docs/CHECK.md`` for the catalog and semantics, and
``repro check list|run|search|corpus`` on the CLI.
"""

from repro.check.corpus import (
    CORPUS_SCHEMA,
    CorpusReport,
    corpus_doc,
    load_corpus,
    run_corpus,
    write_corpus,
)
from repro.check.coverage import CoverageSignature, signature_from_context
from repro.check.oracles import (
    ORACLE_NAMES,
    STATUSES,
    CheckConfig,
    CheckContext,
    CheckReport,
    OracleInfo,
    Verdict,
    all_oracles,
    build_context,
    check_spec,
    evaluate,
    evaluate_context,
    oracle,
    select_oracles,
)
from repro.check.search import (
    CHECK_SCHEMA,
    DEFAULT_LEDGER_DIR,
    MODES,
    STRATEGIES,
    Evaluator,
    SearchResult,
    ledger_path,
    search,
    shrink,
)

__all__ = [
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
]
