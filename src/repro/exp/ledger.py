"""Durable, crash-safe sweep run ledger (schema ``repro-ledger/1``).

The process pool is not the source of truth for a sweep — this ledger
is.  Every sweep that runs with a ledger directory appends one compact
JSON record per event to ``<ledger_dir>/<run-id>.jsonl``, each
*commitment* — every record replay acts on — flushed *and* fsync'd
before the runner acts on it, so a crash at any instant (SIGKILL
included) leaves a readable prefix of the run's history.
``repro exp resume <run-id>`` replays that prefix, identifies
the unfinished points, and re-submits only those — producing a final
sweep JSON byte-identical to an uninterrupted run.  This is the paper's
own checkpoint/restore discipline applied to our orchestrator: finished
work is a committed checkpoint, the crash loses only in-flight points.

Record stream (one JSON object per line, ``event`` discriminates):

``run_started``
    The header: schema tag, run id, scenario name, spec ``key``,
    ``replications``, ``n_points``, and per-point metadata (``index``,
    ``seed``, ``params`` — plus the fully-expanded canonical ``runspec``
    document for machine scenarios), so the ledger alone pins exactly
    what each point means.
``point_started`` / ``point_finished`` / ``point_failed``
    Per-point progress.  ``point_finished`` carries the result payload
    and the sha256 of its compact encoding; ``point_failed`` the
    one-line error.  Duplicates are idempotent on replay (first valid
    record wins); a later ``point_finished`` clears an earlier failure.
    ``point_started`` alone is flushed but not fsync'd: a started and a
    never-started point are the same resume work item (the paper makes
    only the checkpoint resilient, never the task in flight).
``run_finished``
    Terminal marker with the sha256 of the canonical sweep JSON.

Crash-safety rules replay relies on:

* records are append-only on one descriptor and every commitment's
  fsync also covers the unsynced ``point_started`` lines before it, so
  the file on disk is always a prefix of the logical stream plus at
  most one *torn* final line (a crash mid-write) — torn tails are
  skipped with a :class:`LedgerWarning`, never an error;
* corruption anywhere *before* the final line cannot be produced by a
  crash and is refused as a :class:`~repro.errors.ReproError`;
* a ledger whose recorded spec ``key`` no longer matches the registered
  scenario is refused with a :class:`~repro.errors.SpecError` (exit 2
  on the CLI) — resuming someone else's points would silently mix
  incompatible results.

The writer holds no crash injector; the crashes it must survive come
from a harness outside the package (``docs/LEDGER.md``, *Crash testing*).

>>> ledger_path("/tmp/ledgers", "smoke-79ab12cd34ef")
'/tmp/ledgers/smoke-79ab12cd34ef.jsonl'
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.config import RESULTS_DIR
from repro.errors import ReproError
from repro.util.jsonio import append_durable, compact_dumps, parse_json, sha256_hex

#: Ledger record schema tag (the ``run_started`` header carries it).
LEDGER_SCHEMA = "repro-ledger/1"

#: Default ledger directory (the CLI derives ``<cache-dir>/ledger``).
DEFAULT_LEDGER_DIR = os.path.join(RESULTS_DIR, "ledger")


class LedgerWarning(UserWarning):
    """A ledger was readable but imperfect (torn tail, duplicate,
    digest mismatch, unusable file in a listing) — replay degrades the
    affected record to "not finished" instead of crashing."""


def ledger_path(ledger_dir: str, run_id: str) -> str:
    """Ledger-file location for one run id."""
    return os.path.join(ledger_dir, f"{run_id}.jsonl")


def result_digest(result: Dict[str, Any]) -> str:
    """Integrity hash of one point result (sha256 of compact JSON)."""
    return sha256_hex(compact_dumps(result))


class LedgerWriter:
    """Append-only, fsync-per-commitment writer for one run's ledger.

    Use :meth:`start` for a fresh run (truncates any stale ledger for
    the same run id and writes the ``run_started`` header) and
    :meth:`reopen` to continue an interrupted run's file during resume.
    The writer holds the file descriptor open across appends so every
    commitment pays exactly one ``write + flush + fsync``, which also
    covers the ``point_started`` lines written and flushed before it.
    """

    def __init__(self, path: str, fh) -> None:
        self.path = path
        self._fh = fh

    @classmethod
    def start(cls, ledger_dir: str, spec) -> "LedgerWriter":
        """Create a fresh ledger for ``spec`` and write its header.

        A previous ledger for the same run id (e.g. from a crashed run
        the user chose to re-run rather than resume) is truncated: the
        new run owns the file.  Unwritable destinations surface as a
        one-line :class:`~repro.errors.ReproError`, not a traceback.
        """
        from repro.exp.scenario import point_docs

        path = ledger_path(ledger_dir, spec.run_id())
        try:
            os.makedirs(ledger_dir or ".", exist_ok=True)
            fh = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot write sweep ledger {path}: {exc}") from None
        writer = cls(path, fh)
        points = point_docs(spec)
        writer.append(
            {
                "event": "run_started",
                "schema": LEDGER_SCHEMA,
                "run": spec.run_id(),
                "scenario": spec.name,
                "key": spec.key(),
                "replications": spec.replications,
                "n_points": len(points),
                "points": points,
            }
        )
        return writer

    @classmethod
    def reopen(cls, path: str) -> "LedgerWriter":
        """Open an existing ledger for appending (the resume path).

        A crash mid-append leaves a torn final line; appending after it
        would bury the garbage mid-file and poison every later replay.
        So, WAL-style, the torn tail is truncated back to the last
        newline-terminated record before any new append.
        """
        try:
            with open(path, "r+b") as repair:
                data = repair.read()
                if data and not data.endswith(b"\n"):
                    repair.truncate(data.rfind(b"\n") + 1)
            return cls(path, open(path, "a", encoding="utf-8"))
        except OSError as exc:
            raise ReproError(f"cannot append to sweep ledger {path}: {exc}") from None

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record (one compact-JSON line), durably if it commits.

        Every record but ``point_started`` is on stable storage when
        this returns — the runner only acts on an event (marks a point
        done, writes the cache) after its append returned, which is the
        ordering replay trusts.
        """
        line = compact_dumps(record) + "\n"
        try:
            if record.get("event") == "point_started":
                self._fh.write(line)  # in flight, not a commitment: flushed,
                self._fh.flush()  # and the next commitment's fsync carries it
            else:
                append_durable(self._fh, line)
        except OSError as exc:
            raise ReproError(f"cannot append to sweep ledger {self.path}: {exc}") from None

    def point_started(self, index: int) -> None:
        self.append({"event": "point_started", "index": index})

    def point_finished(self, index: int, result: Dict[str, Any]) -> None:
        self.append(
            {
                "event": "point_finished",
                "index": index,
                "sha256": result_digest(result),
                "result": result,
            }
        )

    def point_failed(self, index: int, error: str) -> None:
        self.append({"event": "point_failed", "index": index, "error": error})

    def run_finished(self, sweep_sha256: str) -> None:
        self.append({"event": "run_finished", "sha256": sweep_sha256})

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - close after fsync cannot lose data
            pass

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class LedgerState:
    """The replayed state of one run's ledger.

    ``finished`` is the set of point indices whose ``point_finished``
    record verified against its sha256; ``failed`` maps index to the
    last recorded error for points that never subsequently finished.
    ``unfinished`` is the resume work list — exactly the indices a
    byte-identical completion still has to run.  The payloads —
    ``results`` (index to verified result) and the header's per-point
    ``points`` metadata — are filled only by :func:`replay_ledger`; a
    state from :func:`list_runs` holds neither, only what a listing
    reads.
    """

    path: str
    run_id: str
    scenario: str
    key: str
    replications: int
    n_points: int
    finished: frozenset = frozenset()
    failed: Dict[int, str] = field(default_factory=dict)
    run_finished: bool = False
    sweep_sha256: Optional[str] = None
    torn_lines: int = 0
    points: List[Dict[str, Any]] = field(default_factory=list)
    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def unfinished(self) -> List[int]:
        """Indices a resume must still run, in point order."""
        return [i for i in range(self.n_points) if i not in self.finished]

    def progress(self) -> float:
        """Finished fraction of the grid (0.0 - 1.0)."""
        if self.n_points <= 0:
            return 0.0
        return len(self.finished) / self.n_points

    @property
    def complete(self) -> bool:
        """True when every point finished (resume would re-run nothing)."""
        return not self.unfinished()

    @property
    def status(self) -> str:
        return "complete" if self.complete else "resumable"

    def summary_doc(self) -> Dict[str, Any]:
        """The per-run entry ``repro exp runs --json`` emits."""
        return {
            "run": self.run_id,
            "scenario": self.scenario,
            "key": self.key,
            "replications": self.replications,
            "n_points": self.n_points,
            "finished": len(self.finished),
            "failed": sorted(self.failed),
            "progress": round(self.progress(), 4),
            "status": self.status,
        }


def _records(path: str, fh) -> Iterator[Tuple[int, Optional[Dict[str, Any]]]]:
    """Ledger lines, one at a time -> (line number, record), where the
    record is ``None`` for a torn final line.

    Only the *final* line may be unparseable — that is the one write a
    crash can tear, and it is torn whenever its newline is missing,
    parseable or not (:meth:`LedgerWriter.reopen` truncates it).  Earlier
    garbage cannot result from in-order appends to one descriptor and is
    refused loudly rather than silently dropped.  A one-line lookahead
    tells the final line apart, so no more than two lines are ever held.
    """
    lineno, line = 0, None
    for next_lineno, next_line in enumerate(fh, start=1):
        if line is not None:
            yield lineno, _record(path, lineno, line, final=False)
        lineno, line = next_lineno, next_line
    if line is not None:
        yield lineno, _record(path, lineno, line, final=True)


def _record(path: str, lineno: int, line: str, final: bool) -> Optional[Dict[str, Any]]:
    try:
        if not line.endswith("\n"):
            raise ValueError("the append did not complete")
        record = parse_json(line)
        if not isinstance(record, dict) or "event" not in record:
            raise ValueError("not a ledger record object")
    except ValueError:
        if not final:
            raise _corrupt(path, lineno, "only the final line may be torn") from None
        warnings.warn(
            f"sweep ledger {path}: skipping torn final line (crash mid-append)",
            LedgerWarning,
            stacklevel=5,
        )
        return None
    return record


def _corrupt(path: str, lineno: int, why: str) -> ReproError:
    return ReproError(f"sweep ledger {path} is corrupt at line {lineno}: {why}")


def _count(
    path: str, lineno: int, record: Dict[str, Any], name: str, low: int, default: Any = None
) -> int:
    """``record.get(name, default)``, which must be an integer ``>= low``."""
    value = record.get(name, default)
    if type(value) is not int or value < low:
        raise _corrupt(path, lineno, f"{name} must be an integer >= {low}, got {value!r}")
    return value


def replay_ledger(path: str) -> LedgerState:
    """Replay one ledger file into a :class:`LedgerState`.

    Tolerates a torn final line (skipped with a :class:`LedgerWarning`);
    refuses ledgers with no usable ``run_started`` header, a foreign
    schema tag, mid-file corruption, or a record whose fields are not
    what the writer writes (:class:`~repro.errors.ReproError`, naming
    the line).
    Duplicate ``point_finished`` records are idempotent — the first
    digest-verified record wins; a record whose payload does not match
    its recorded sha256 is degraded to "not finished" with a warning.
    """
    return _replay(path, keep_payloads=True)


def _replay(path: str, keep_payloads: bool) -> LedgerState:
    """The one fold behind :func:`replay_ledger` and :func:`list_runs`,
    streamed a line at a time.  Every digest is checked either way;
    only ``keep_payloads`` keeps the verified results and the header's
    ``points``."""
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ReproError(f"cannot read sweep ledger {path}: {exc}") from None
    with fh:
        records = _records(path, fh)
        header = next(records, (1, None))[1]
        if header is None or header.get("event") != "run_started":
            raise ReproError(
                f"sweep ledger {path} has no usable run_started header"
            )
        if header.get("schema") != LEDGER_SCHEMA:
            raise ReproError(
                f"sweep ledger {path} has schema {header.get('schema')!r}; "
                f"expected {LEDGER_SCHEMA!r}"
            )
        scenario, key, points = header.get("scenario"), header.get("key"), header.get("points", [])
        if not (isinstance(scenario, str) and isinstance(key, str) and isinstance(points, list)):
            raise _corrupt(path, 1, "scenario and key must be strings, points a list")
        n_points = _count(path, 1, header, "n_points", 0)
        replications = _count(path, 1, header, "replications", 1, default=1)
        run_id = str(header.get("run", ""))
        points = points if keep_payloads else []
        del header  # a listing drops the header's points before the fold
        finished = set()
        results: Dict[int, Dict[str, Any]] = {}
        failed: Dict[int, str] = {}
        run_done = False
        sweep_sha: Optional[str] = None
        torn = 0
        for lineno, record in records:
            if record is None:
                torn += 1
                continue
            event = record["event"]
            if event in ("point_started", "point_finished", "point_failed"):
                index = _count(path, lineno, record, "index", 0)
            if event == "point_finished":
                result = record.get("result")
                if not isinstance(result, dict) or result_digest(result) != record.get(
                    "sha256"
                ):
                    warnings.warn(
                        f"sweep ledger {path}: point {index} finished-record "
                        "fails its sha256 check; treating the point as "
                        "unfinished",
                        LedgerWarning,
                        stacklevel=3,
                    )
                    continue
                if index in finished:
                    continue  # duplicate append (e.g. crash between fsync and ack)
                finished.add(index)
                if keep_payloads:
                    results[index] = result
                failed.pop(index, None)
            elif event == "point_failed":
                if index not in finished:
                    failed[index] = str(record.get("error", ""))
            elif event == "run_finished":
                run_done = True
                sweep_sha = record.get("sha256")
            elif event not in ("run_started", "point_started"):
                # unknown event: forward compatibility
                warnings.warn(
                    f"sweep ledger {path}: skipping unknown event {event!r}",
                    LedgerWarning,
                    stacklevel=3,
                )
    return LedgerState(
        path=path,
        run_id=run_id,
        scenario=scenario,
        key=key,
        replications=replications,
        n_points=n_points,
        finished=frozenset(finished),
        failed=failed,
        run_finished=run_done,
        sweep_sha256=sweep_sha,
        torn_lines=torn,
        points=points,
        results=results,
    )


def list_runs(ledger_dir: str = DEFAULT_LEDGER_DIR) -> List[LedgerState]:
    """Replay every ledger under ``ledger_dir``, sorted by run id.

    Each digest is verified as :func:`replay_ledger` verifies it, but a
    listed state keeps only what a listing reads — the finished
    indices, the failures and the header's identity — and no result
    payload or per-point metadata.

    Unusable files (headerless — e.g. a crash tore the very first
    record — or corrupt) are skipped with a :class:`LedgerWarning`
    rather than failing the whole listing; ``repro exp resume`` on such
    a run reports the precise error.
    """
    try:
        names = sorted(
            name for name in os.listdir(ledger_dir) if name.endswith(".jsonl")
        )
    except OSError:
        return []
    states: List[LedgerState] = []
    for name in names:
        path = os.path.join(ledger_dir, name)
        try:
            states.append(_replay(path, keep_payloads=False))
        except ReproError as exc:
            warnings.warn(
                f"skipping unusable sweep ledger: {exc}",
                LedgerWarning,
                stacklevel=2,
            )
    return states


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
