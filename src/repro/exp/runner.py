"""Parallel sweep runner with an on-disk JSON result cache.

``run_scenario`` expands a scenario into its point grid, runs every
point (serially or fanned out over a ``ProcessPoolExecutor``), and
assembles per-point result dicts **in point order**.  A pool worker is
handed the spec's runner and the point's parameters — the same call a
serial run makes — so any ``ScenarioSpec``, registered or not, runs the
same way in both.  Because points are independent pure functions of
their parameters and results are keyed by index, a sweep produces
byte-identical JSON no matter how many workers ran it — the
serial-parity guarantee the tests pin down.

Caching: the result payload is stored at
``<cache_dir>/<scenario>/<spec_key>.json`` where ``spec_key`` is a
stable hash of the spec's identity (name, runner, base, axes, version).
Any change to the spec changes the key, so stale results are never
served; a corrupt or unreadable cache file is treated as a miss.

Durability: with ``ledger_dir`` set, progress is journaled to a
crash-safe append-only ledger (:mod:`repro.exp.ledger`) as the sweep
runs, and :func:`resume_run` completes an interrupted run from that
ledger — re-running only the unfinished points — with byte-identical
final JSON.  Without a ledger the runner's behavior (and every byte it
produces) is unchanged.

>>> result_path("/tmp/results", "demo", "abc123")
'/tmp/results/demo/abc123.json'
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError, SpecError
from repro.exp.ledger import (
    DEFAULT_LEDGER_DIR,
    LedgerWriter,
    ledger_path,
    replay_ledger,
)
from repro.exp.points import RUNNERS
from repro.exp.scenario import (
    Point,
    ScenarioSpec,
    expand,
    get_scenario,
    point_doc,
    with_replications,
)
from repro.util.jsonio import canonical_dumps, canonical_file, parse_json, write_canonical


def result_path(cache_dir: str, scenario: str, key: str) -> str:
    """Cache-file location for one (scenario, spec-key) pair."""
    return os.path.join(cache_dir, scenario, f"{key}.json")


@dataclass
class SweepResult:
    """Outcome of one scenario sweep.

    ``run_id``/``ledger_path`` are set only for ledgered runs; they
    never enter :meth:`payload`, so ledgered and ledgerless sweeps stay
    byte-identical.
    """

    scenario: str
    key: str
    points: List[Dict[str, Any]] = field(default_factory=list)
    cache_hit: bool = False
    cache_path: Optional[str] = None
    replications: int = 1
    run_id: Optional[str] = None
    ledger_path: Optional[str] = None
    resumed_points: Optional[int] = None

    def payload(self) -> Dict[str, Any]:
        """The JSON document that is cached and printed by ``--json``.

        ``replications`` appears only when it is not 1, so unreplicated
        payloads stay byte-identical to the pre-replication format (the
        golden digests pin this).
        """
        doc = {"scenario": self.scenario, "key": self.key, "points": self.points}
        if self.replications != 1:
            doc["replications"] = self.replications
        return doc

    def to_json(self) -> str:
        """Canonical rendering — byte-identical for identical results.

        The one encoding of :mod:`repro.util.jsonio`, shared by every
        committed/cached JSON artifact.
        """
        return canonical_dumps(self.payload())

    def results(self) -> List[Dict[str, Any]]:
        """Just the per-point result dicts, in point order."""
        return [p["result"] for p in self.points]

    def by_axes(self, *axis_names: str) -> Dict[Any, Dict[str, Any]]:
        """Index results by axis value(s): 1 name -> value, else tuple.

        On a *replicated* sweep every axis assignment maps to several
        points, so a single-result index would silently pick one
        replicate; that is refused — aggregate replicates with
        :func:`repro.report.aggregate_sweep` instead.  (Unreplicated
        sweeps keep the historical projection semantics: with a subset
        of the axes, later points overwrite earlier ones.)
        """
        if any(p.get("replicate") for p in self.points):
            raise ValueError(
                "by_axes on a replicated sweep would pick an arbitrary "
                "replicate per cell; use repro.report.aggregate_sweep "
                "for per-cell statistics"
            )
        out: Dict[Any, Dict[str, Any]] = {}
        for p in self.points:
            key = tuple(p["params"][a] for a in axis_names)
            out[key[0] if len(axis_names) == 1 else key] = p["result"]
        return out


def _point_entry(
    spec: ScenarioSpec, point: Point, result: Dict[str, Any]
) -> Dict[str, Any]:
    """One cached per-point entry: the point's document and its result."""
    return {**point_doc(spec, point), "result": result}


def _is_entry(entry: Any, spec: ScenarioSpec, point: Point) -> bool:
    """Whether ``entry`` is what :func:`_point_entry` writes for ``point``
    with some result: the same keys and values, and ints that are ints
    (``true`` compares equal to ``1``, ``0.0`` to ``0``)."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("result"), dict)
        and entry == _point_entry(spec, point, entry["result"])
        and all(type(entry[k]) is int for k in ("index", "seed", "replicate") if k in entry)
    )


def _load_cached(path: str, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
    """The payload cached at ``path`` if it is a whole sweep of ``spec``;
    anything else (unreadable, foreign, truncated, malformed) is a miss."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = parse_json(fh.read())
    except (OSError, ValueError):
        return None
    points = payload.get("points") if isinstance(payload, dict) else None
    whole = (
        isinstance(points, list) and len(points) == spec.n_points()
        and payload.get("scenario") == spec.name and payload.get("key") == spec.key()
        and all(_is_entry(entry, spec, point) for entry, point in zip(points, expand(spec)))
    )
    return payload if whole else None


def _outcomes(
    run: Callable[..., Dict[str, Any]],
    todo: List[Point],
    workers: int,
    start: Callable[[int], None],
) -> Iterator[Tuple[int, Callable[[], Dict[str, Any]]]]:
    """Yield ``(index, outcome)`` per point; calling ``outcome()`` returns
    the point's result or raises its failure.

    ``start(index)`` is called as each point is launched: serially, just
    before it runs; over a pool, for every point at submit time, with
    outcomes then arriving in completion order.  A worker is handed the
    runner and the point's parameters, the same call a serial run makes.
    """
    if workers > 1 and len(todo) > 1:
        # imported here: a process pool loads multiprocessing, pickle,
        # socket and logging, which a serial sweep never needs
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
            futures = {}
            for point in todo:
                start(point.index)
                futures[pool.submit(run, point.params)] = point.index
            for future in as_completed(futures):
                yield futures[future], future.result
    else:
        for point in todo:
            start(point.index)
            yield point.index, partial(run, point.params)


def _execute_points(
    spec: ScenarioSpec,
    points: List[Point],
    indices: Iterable[int],
    workers: int,
    writer: Optional[LedgerWriter],
) -> Dict[int, Dict[str, Any]]:
    """Run the given point indices; journal progress when ledgered.

    Without a ledger the first exception propagates immediately (the
    historical behavior).  With one, a failing point is recorded as
    ``point_failed`` and the *other* points still run to completion —
    maximizing what a later ``repro exp resume`` can skip — before one
    :class:`~repro.errors.ReproError` summarizes the failures.
    """
    results: Dict[int, Dict[str, Any]] = {}
    failures: Dict[int, str] = {}
    start = writer.point_started if writer is not None else lambda index: None
    outcomes = _outcomes(
        RUNNERS[spec.runner], [points[index] for index in indices], workers, start
    )
    with closing(outcomes):
        for index, outcome in outcomes:
            try:
                results[index] = outcome()
                if writer is not None:
                    writer.point_finished(index, results[index])
            except Exception as exc:  # noqa: BLE001 - journaled, re-raised below
                if writer is None:
                    raise
                failures[index] = f"{type(exc).__name__}: {exc}"
                writer.point_failed(index, failures[index])

    if failures:
        first = min(failures)
        raise ReproError(
            f"{len(failures)} point(s) failed {sorted(failures)} "
            f"(point {first}: {failures[first]}); the ledger marks them "
            f"failed — retry with `repro exp resume {spec.run_id()}`"
        )
    return results


def _assemble(
    spec: ScenarioSpec,
    points: List[Point],
    results: Dict[int, Dict[str, Any]],
    cache_path: Optional[str],
    writer: Optional[LedgerWriter] = None,
    resumed_points: Optional[int] = None,
) -> SweepResult:
    """Order results by point index into the canonical sweep document.

    The document is streamed into a temp file beside the cache path,
    the ``run_finished`` ledger record (carrying the sha256 of the bytes
    just written) is appended, and only then is the file renamed into
    place: a cache file is never visible before its ledger record, a
    crash in between leaves a complete ledger (and a stray
    ``.tmp-*.json`` nothing reads), and resume rebuilds the
    byte-identical cache file from it.  Unwritable cache destinations
    get a one-line :class:`~repro.errors.ReproError`.
    """
    sweep = SweepResult(
        scenario=spec.name,
        key=spec.key(),
        points=[_point_entry(spec, point, results[point.index]) for point in points],
        cache_hit=False,
        cache_path=cache_path,
        replications=spec.replications,
        run_id=spec.run_id() if writer is not None else None,
        ledger_path=writer.path if writer is not None else None,
        resumed_points=resumed_points,
    )
    if cache_path:
        try:
            with canonical_file(cache_path, sweep.payload()) as digest:
                if writer is not None:
                    writer.run_finished(digest)
        except OSError as exc:
            raise ReproError(f"cannot write sweep cache {cache_path}: {exc}") from None
    elif writer is not None:
        writer.run_finished(write_canonical(sweep.payload()))
    return sweep


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    workers: int = 1,
    cache_dir: Optional[str] = None,
    force: bool = False,
    ledger_dir: Optional[str] = None,
) -> SweepResult:
    """Run every point of a scenario; serve or populate the cache.

    ``workers > 1`` fans points out over a process pool; results are
    reassembled by point index, so the output is identical to a
    ``workers=1`` run.  With ``cache_dir`` set, a prior run of the same
    spec is returned straight from disk (unless ``force``) and fresh
    runs are written back atomically.  With ``ledger_dir`` set, fresh
    runs journal their progress to ``<ledger_dir>/<run-id>.jsonl`` so an
    interrupted sweep can be completed with :func:`resume_run`; cache
    hits touch no ledger.
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else get_scenario(scenario)
    key = spec.key()
    path = result_path(cache_dir, spec.name, key) if cache_dir else None

    if path and not force:
        payload = _load_cached(path, spec)
        if payload is not None:
            return SweepResult(
                scenario=spec.name,
                key=key,
                points=payload["points"],
                cache_hit=True,
                cache_path=path,
                replications=spec.replications,
            )

    points = expand(spec)
    writer = LedgerWriter.start(ledger_dir, spec) if ledger_dir else None
    try:
        results = _execute_points(spec, points, range(len(points)), workers, writer)
        return _assemble(spec, points, results, path, writer)
    finally:
        if writer is not None:
            writer.close()


def resume_run(
    run_id: str,
    ledger_dir: str = DEFAULT_LEDGER_DIR,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> SweepResult:
    """Complete an interrupted sweep from its ledger.

    Replays ``<ledger_dir>/<run_id>.jsonl``, re-submits only the points
    without a digest-verified ``point_finished`` record (failed points
    are retried), appends the remaining progress to the same ledger,
    and writes the completed sweep to the cache.  The result is
    byte-identical to an uninterrupted run of the same spec — the
    crash-injection harness pins that end to end.

    Refused with :class:`~repro.errors.SpecError` (CLI exit 2) when the
    run id is unknown or the registered scenario's identity no longer
    matches what the ledger recorded.
    """
    path = ledger_path(ledger_dir, run_id)
    if not os.path.exists(path):
        from repro.exp.ledger import list_runs

        known = [state.run_id for state in list_runs(ledger_dir)]
        raise SpecError(
            f"no ledger for run {run_id!r} under {ledger_dir} "
            f"(known runs: {known or 'none'}; see `repro exp runs`)",
            field="run_id", value=run_id,
        )
    state = replay_ledger(path)
    try:
        spec = with_replications(get_scenario(state.scenario), state.replications)
    except KeyError:
        raise SpecError(
            f"ledger {path} names scenario {state.scenario!r}, which is "
            "no longer registered",
            field="scenario", value=state.scenario,
        ) from None
    if spec.key() != state.key:
        raise SpecError(
            f"ledger {path} was recorded against spec identity "
            f"{state.key} but scenario {state.scenario!r} now has identity "
            f"{spec.key()}; the recorded RunSpecs no longer describe this "
            "scenario — re-run instead of resuming",
            field="key", value=state.key,
        )
    points = expand(spec)
    todo = state.unfinished()
    cache_path = result_path(cache_dir, spec.name, spec.key()) if cache_dir else None
    results = dict(state.results)
    with LedgerWriter.reopen(path) as writer:
        results.update(_execute_points(spec, points, todo, workers, writer))
        return _assemble(
            spec, points, results, cache_path, writer, resumed_points=len(todo)
        )


def sweep_table(sweep: SweepResult, spec: Optional[ScenarioSpec] = None) -> str:
    """Render a sweep as a text table: axis columns + the spec's columns."""
    from repro.util.tables import format_table

    spec = spec if spec is not None else get_scenario(sweep.scenario)
    axis_names = list(spec.axes)
    columns = list(spec.columns)
    replicated = any("replicate" in p for p in sweep.points)
    header = ["#"] + (["rep"] if replicated else []) + axis_names + columns
    rows = []
    for p in sweep.points:
        row: List[Any] = [p["index"]]
        if replicated:
            row.append(p.get("replicate", 0))
        row += [p["params"].get(a) for a in axis_names]
        metrics = p["result"].get("metrics")
        for col in columns:
            value = p["result"].get(col, metrics.get(col) if isinstance(metrics, dict) else None)
            if value is None and "." in col:
                # Dotted columns read one sub-dict level (e.g. the
                # ``load.*`` summary of an open-loop run).
                value: Any = p["result"]
                for part in col.split("."):
                    value = value.get(part) if isinstance(value, dict) else None
            if isinstance(value, float):
                value = round(value, 3)
            row.append(value)
        rows.append(row)
    return format_table(header, rows, title=spec.title)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
