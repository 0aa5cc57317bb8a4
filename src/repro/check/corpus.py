"""Pinned reproducer corpora: save a search's minimal violations, replay
them as a regression gate.

A corpus is a canonical-JSON document (schema ``repro-corpus/1``)
holding the minimal reproducers a search shrank, each with the oracles
it violated and the **full verdict status map** at recording time.
Checked into ``tests/baselines/corpus/`` (and uploaded from CI), a
corpus turns every bug the fuzzer ever found into a permanent gate:
``repro check corpus run PATH`` re-executes every entry against its
recorded base spec and fails unless each entry *still violates its
recorded oracles* and *every verdict status matches the pinned one* —
a fixed bug that silently regresses, or an oracle that quietly changes
its judgement, both trip the gate.

Documents are deterministic (no timestamps, sorted keys), so two
searches with the same ``(base, seed, config, strategy)`` write the
byte-identical corpus.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.api.specs import NemesisSpec, RunSpec
from repro.check.oracles import ORACLE_NAMES, CheckConfig
from repro.check.search import Evaluator, SearchResult
from repro.errors import SpecError
from repro.util.jsonio import canonical_dumps, emit_json, parse_json

#: Corpus document schema tag.
CORPUS_SCHEMA = "repro-corpus/1"


def corpus_doc(result: SearchResult) -> Dict[str, Any]:
    """The canonical corpus document for one search's shrunk violations."""
    entries = [
        {
            "attempt": v["attempt"],
            "nemesis": v["minimal"],
            "violations": list(v["minimal_violations"]),
            "statuses": dict(v["statuses"]),
            "signature": v["signature"],
            "margin": v["margin"],
        }
        for v in result.violations
    ]
    return {
        "schema": CORPUS_SCHEMA,
        "base": result.base.to_json(),
        "check": result.config.to_json(),
        "seed": result.seed,
        "strategy": result.strategy,
        "entries": entries,
    }


def write_corpus(result: SearchResult, path: str) -> str:
    """Write the corpus document atomically; returns ``path``."""
    emit_json(corpus_doc(result), path=path)
    return path


def _is_names(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_status_map(value: Any) -> bool:
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


#: What each entry field must be: (name, value when absent, check, wanted).
_ENTRY_SHAPE = (
    ("nemesis", None, lambda v: isinstance(v, str), "a nemesis spec string"),
    ("violations", [], _is_names, "a list of oracle names"),
    ("statuses", {}, _is_status_map, "an object of oracle -> status"),
)


def _check_shape(path: str, doc: Dict[str, Any]) -> None:
    """Refuse a document ``run_corpus`` cannot read, before anything runs."""

    def refuse(field: str, value: Any, wanted: str) -> SpecError:
        return SpecError(
            f"corpus {path!r}: {field} must be {wanted}", field=f"corpus.{field}", value=value
        )

    if not isinstance(doc.get("base"), dict):
        raise refuse("base", doc.get("base"), "a RunSpec document")
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise refuse("entries", entries, "a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise refuse(f"entries[{i}]", entry, "an object")
        for name, absent, check, wanted in _ENTRY_SHAPE:
            value = entry.get(name, absent)
            if not check(value):
                raise refuse(f"entries[{i}].{name}", value, wanted)
        # an entry that pins no violation would replay as ok vacuously
        violations, statuses = entry.get("violations", []), entry.get("statuses", {})
        if not violations or any(
            name not in ORACLE_NAMES or statuses.get(name) != "violation"
            for name in violations
        ):
            raise refuse(
                f"entries[{i}].violations", violations,
                'at least one catalog oracle, each pinned "violation" in statuses',
            )


def load_corpus(path: str) -> Dict[str, Any]:
    """Load and check one corpus document: schema tag, then shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = parse_json(fh.read())
    except (OSError, ValueError) as exc:
        raise SpecError(
            f"cannot read corpus {path!r}: {exc}", field="corpus.path", value=path
        ) from None
    if not isinstance(doc, dict) or doc.get("schema") != CORPUS_SCHEMA:
        raise SpecError(
            f"{path!r} is not a {CORPUS_SCHEMA} corpus document",
            field="corpus.schema", value=doc.get("schema") if isinstance(doc, dict) else doc,
            allowed=(CORPUS_SCHEMA,),
        )
    _check_shape(path, doc)
    return doc


def corpus_files(path: str) -> List[str]:
    """Resolve a corpus file or a directory of ``*.json`` corpora."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".json")
        )
        if not files:
            raise SpecError(
                f"no *.json corpus files under {path!r}",
                field="corpus.path", value=path,
            )
        return files
    return [path]


@dataclass(frozen=True)
class EntryResult:
    """One replayed corpus entry versus its recorded verdicts."""

    source: str
    nemesis: str
    #: Oracles recorded as violating; ``missing`` are the ones that no
    #: longer violate on replay.
    expected: Tuple[str, ...]
    missing: Tuple[str, ...]
    #: ``oracle -> (recorded, replayed)`` for every drifted status.
    drifted: Tuple[Tuple[str, Tuple[str, str]], ...]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.drifted

    def to_json(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "nemesis": self.nemesis,
            "expected": list(self.expected),
            "missing": list(self.missing),
            "drifted": {
                oracle: {"recorded": rec, "replayed": rep}
                for oracle, (rec, rep) in self.drifted
            },
            "ok": self.ok,
        }


@dataclass(frozen=True)
class CorpusReport:
    """Every replayed entry of one ``corpus run`` invocation."""

    entries: Tuple[EntryResult, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failed(self) -> Tuple[EntryResult, ...]:
        return tuple(e for e in self.entries if not e.ok)

    def to_json(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "entries": [e.to_json() for e in self.entries],
        }

    def summary(self) -> str:
        lines = [
            f"corpus: {len(self.entries)} entr"
            f"{'y' if len(self.entries) == 1 else 'ies'} replayed, "
            f"{len(self.failed)} regression(s)"
        ]
        for e in self.entries:
            mark = "ok " if e.ok else "FAIL"
            lines.append(f"  {mark} {e.nemesis}")
            if e.missing:
                lines.append(
                    f"       no longer violates: {', '.join(e.missing)}"
                )
            for oracle, (rec, rep) in e.drifted:
                lines.append(
                    f"       {oracle}: recorded {rec}, replayed {rep}"
                )
        return "\n".join(lines)


def run_corpus(path: str) -> CorpusReport:
    """Replay a corpus file (or a directory of them) as a regression gate.

    Every entry is re-executed against its recorded base spec and check
    config; an entry passes only if each recorded violating oracle
    still violates *and* the full verdict status map matches the pinned
    one.  Evaluations are memoized per base document, so duplicate
    reproducers across files never re-simulate.
    """
    results: List[EntryResult] = []
    evaluators: Dict[str, Evaluator] = {}
    for source in corpus_files(path):
        doc = load_corpus(source)
        base = RunSpec.from_json(doc["base"]).validate()
        config = CheckConfig.from_json(doc.get("check", {}))
        memo_key = canonical_dumps(
            {"base": doc["base"], "check": doc.get("check", {})}
        )
        evaluator = evaluators.setdefault(memo_key, Evaluator(base, config))
        for entry in doc.get("entries", ()):
            nemesis = NemesisSpec.parse(entry["nemesis"])
            report = evaluator.evaluate(nemesis).report
            violated = {v.oracle for v in report.violations}
            actual = {v.oracle: v.status for v in report.verdicts}
            expected = tuple(entry.get("violations", ()))
            recorded = dict(entry.get("statuses", {}))
            missing = tuple(o for o in expected if o not in violated)
            drifted = tuple(
                (oracle, (recorded[oracle], actual.get(oracle, "absent")))
                for oracle in sorted(recorded)
                if recorded[oracle] != actual.get(oracle, "absent")
            )
            results.append(
                EntryResult(
                    source=source,
                    nemesis=entry["nemesis"],
                    expected=expected,
                    missing=missing,
                    drifted=drifted,
                )
            )
    return CorpusReport(entries=tuple(results))
