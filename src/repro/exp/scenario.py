"""Declarative scenario specs and the scenario registry.

A *scenario* is a named, parameterized experiment: a base parameter set,
a grid of sweep axes, and the name of a point runner (see
:mod:`repro.exp.points`).  Expanding a scenario yields its *points* — one
per cell of the axis grid, in a deterministic order — and each point
carries a deterministic seed derived from the scenario name and the
point's parameters, so reruns (and parallel runs) see identical streams.

Everything in a spec is JSON-serializable: runners are referenced by
name, not by callable.  That keeps specs hashable (for the result cache)
and lets worker processes re-resolve a point from ``(scenario, index)``
alone.

>>> spec = ScenarioSpec(
...     name="demo",
...     title="demo sweep",
...     description="two policies x two fault times",
...     runner="machine",
...     base={"workload": "balanced:3:2:10"},
...     axes={"policy": ("rollback", "splice"), "fault_frac": (0.4, 0.8)},
... )
>>> [p.params["policy"] for p in expand(spec)]
['rollback', 'rollback', 'splice', 'splice']
>>> expand(spec)[0].seed == expand(spec)[0].seed  # stable across calls
True
>>> len({p.seed for p in expand(spec)})  # distinct per point
4
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.util.jsonio import compact_dumps, copy_json, sha256_hex


def stable_hash(payload: Any) -> str:
    """Hex digest of the compact canonical JSON of ``payload`` (the
    first 16 sha256 hex digits).

    Unlike ``hash()``, this is stable across processes and runs.
    """
    return sha256_hex(compact_dumps(payload))[:16]


def _seed63(text: str) -> int:
    # the first 8 bytes of the text's digest, big-endian, less the top bit
    return int(sha256_hex(text)[:16], 16) >> 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, parameterized experiment.

    ``base`` holds parameters shared by every point; ``axes`` maps axis
    name -> tuple of values and is swept as a full cross product in
    declaration order (last axis varies fastest).  ``runner`` names a
    point runner registered in :data:`repro.exp.points.RUNNERS`.
    ``columns`` lists result keys the CLI shows per point (display only —
    it does not enter the cache key).  To invalidate cached results,
    bump the runner's :data:`~repro.exp.points.RUNNER_VERSIONS` entry
    or change ``base``.
    """

    name: str
    title: str
    description: str
    runner: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    columns: Tuple[str, ...] = ()
    #: Some scenarios *demonstrate* failure (e.g. replication with k=1
    #: stalls under a fault); the CLI then doesn't turn failed points
    #: into a nonzero exit code.
    expect_failures: bool = False
    #: Expand every grid cell into this many deterministically-seeded
    #: replicates (replicate 0 keeps the cell's historical seed, so
    #: ``replications=1`` is byte-identical to a spec without the
    #: field).  The report subsystem aggregates the replicates into
    #: median/IQR/bootstrap-CI summaries — see docs/REPORTS.md.
    replications: int = 1

    def identity(self) -> Dict[str, Any]:
        """The JSON payload that defines this spec's result-cache key.

        Includes the runner's own version
        (:data:`repro.exp.points.RUNNER_VERSIONS`), so a semantic change
        to a point runner invalidates every cached sweep that used it
        without touching each spec.

        For ``machine`` scenarios the identity additionally carries the
        fully-expanded canonical RunSpec documents (one per point), so
        the cache key is a function of what each point *means* — any
        change to the RunSpec schema or to how params resolve into specs
        invalidates stale sweeps even if ``base``/``axes`` look equal.

        ``replications`` enters the payload only when it is not 1, so
        every pre-replication cache key is preserved byte-for-byte.
        """
        from repro.exp.points import RUNNER_VERSIONS

        payload = {
            "name": self.name,
            "runner": self.runner,
            "runner_version": RUNNER_VERSIONS.get(self.runner, 1),
            "base": dict(self.base),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "version": 1,  # no spec sets its own version; the literal keeps every key
        }
        if self.replications != 1:
            payload["replications"] = self.replications
        if self.runner == "machine":
            payload["runspecs"] = expanded_runspecs(self)
        return payload

    def key(self) -> str:
        """Stable hash of the spec (the result-cache key).

        Memoized per instance: for machine scenarios ``identity()``
        expands the grid and serializes a RunSpec per point, so repeated
        ``key()`` calls (the runner, ``exp show``, tests) must not repay
        that.  The spec is frozen, so the cache can never go stale —
        except for the deliberate RUNNER_VERSIONS monkeypatching in
        tests, which constructs fresh specs.
        """
        cached = getattr(self, "_key_cache", None)
        if cached is None:
            cached = stable_hash(self.identity())
            object.__setattr__(self, "_key_cache", cached)
        return cached

    def run_id(self) -> str:
        """Deterministic sweep-ledger run identifier.

        Derived from the scenario name plus a prefix of :meth:`key`, so
        it is a pure function of the spec's identity (name, runner and
        runner version, base, axes, replications, and — for machine
        scenarios — the expanded canonical RunSpecs).  Two processes
        sweeping the same spec agree on the run id without coordination,
        and any change to what the sweep *means* yields a fresh id, so a
        stale ledger can never be resumed against a changed spec.
        """
        return f"{self.name}-{self.key()[:12]}"

    def n_cells(self) -> int:
        """Number of grid cells (axis combinations, ignoring replication)."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def n_points(self) -> int:
        return self.n_cells() * max(1, self.replications)


def with_replications(spec: ScenarioSpec, replications: int) -> ScenarioSpec:
    """A copy of ``spec`` expanding each grid cell into N replicates.

    ``replications=1`` returns a spec whose identity, key, and expansion
    are byte-identical to the original, so derived specs reuse the same
    result cache as the registered one.

    Raises :class:`~repro.errors.SpecError` (the CLI's one-line exit-2
    diagnostic, like every other malformed spec input) for counts < 1.
    """
    from dataclasses import replace

    from repro.errors import SpecError

    replications = int(replications)
    if replications < 1:
        raise SpecError(
            f"replications must be >= 1, got {replications}",
            field="replications", value=replications,
        )
    if replications == spec.replications:
        return spec
    return replace(spec, replications=replications)


@dataclass(frozen=True)
class Point:
    """One cell of a scenario's grid: merged parameters plus a seed.

    ``replicate`` numbers the point within its grid cell (always 0 for
    unreplicated sweeps); replicate 0 carries the cell's historical
    seed, later replicates carry derived seeds (:func:`replicate_seed`).
    """

    index: int
    params: Mapping[str, Any]
    seed: int
    replicate: int = 0


def point_seed(scenario_name: str, params: Mapping[str, Any]) -> int:
    """Deterministic 63-bit seed for one point.

    Derived from the scenario name and the full parameter assignment via
    sha256, so it is reproducible across processes, machines, and worker
    counts — never from ``hash()`` or run order.
    """
    return _seed63(compact_dumps([scenario_name, dict(params)]))


def replicate_seed(
    scenario_name: str, params: Mapping[str, Any], replicate: int
) -> int:
    """Deterministic 63-bit seed for replicate ``r >= 1`` of one cell.

    ``params`` is the cell's replicate-0 parameter assignment (its
    historical seed included, pinned or derived), so the whole seed set
    of a cell is a pure function of the replicate-0 point — stable
    across machines, worker counts, and runs, and distinct per cell,
    per scenario, and per replicate index.
    """
    return _replicate_seeds(scenario_name, params)(replicate)


def _replicate_seeds(scenario_name: str, params: Mapping[str, Any]) -> Callable[[int], int]:
    """:func:`replicate_seed` of one cell as a function of the replicate.

    The seed hashes ``compact_dumps([name, params, "replicate", r])``;
    everything before ``r`` is the cell's, so it is encoded once and each
    replicate appends ``r]`` — the same bytes, one encoding per cell.
    """
    prefix = compact_dumps([scenario_name, dict(params), "replicate"])[:-1] + ","
    return lambda replicate: _seed63(f"{prefix}{replicate}]")


def expand(spec: ScenarioSpec) -> List[Point]:
    """Expand a spec into its ordered point list.

    The order is the cross product of the axes in declaration order, so
    it is identical on every run — results are assembled by point index
    and therefore do not depend on worker scheduling.

    If the merged parameters carry no explicit ``seed``, each point gets
    a derived deterministic seed under the ``"seed"`` key.

    With ``replications > 1`` each grid cell yields ``replications``
    consecutive points (replicate varies fastest).  Replicate 0 is
    byte-identical to the unreplicated point; replicates 1..N-1 replace
    the ``seed`` parameter with :func:`replicate_seed`.
    """
    names = list(spec.axes)
    value_lists = [spec.axes[n] for n in names]
    replications = max(1, spec.replications)
    points: List[Point] = []
    index = 0
    for combo in itertools.product(*value_lists):
        cell: Dict[str, Any] = dict(spec.base)
        cell.update(zip(names, combo))
        if "seed" not in cell:
            cell["seed"] = point_seed(spec.name, cell)
        points.append(Point(index=index, params=cell, seed=cell["seed"]))
        if replications > 1:
            seed_of = _replicate_seeds(spec.name, cell)
            for replicate in range(1, replications):
                seed = seed_of(replicate)
                points.append(
                    Point(index=index + replicate, params={**cell, "seed": seed},
                          seed=seed, replicate=replicate)
                )
        index += replications
    return points


def expanded_runspecs(spec: ScenarioSpec) -> List[Dict[str, Any]]:
    """Canonical RunSpec documents for every point of a ``machine`` spec.

    Memoized per instance (the spec is frozen): ``identity()``/``key()``
    and ``exp show --json`` share one grid expansion and one
    parse+serialize pass instead of each paying their own.  Replicates
    of a cell differ only in ``seed``, so each cell's RunSpec is parsed
    once, at replicate 0, and every later replicate gets a copy of that
    document with its own seed (coerced as ``RunSpec.from_params`` does).
    """
    from repro.load.grammar import INT, coerce

    cached = getattr(spec, "_runspecs_cache", None)
    if cached is None:
        cached = []
        for point in expand(spec):
            if point.replicate == 0:
                doc = first = point_runspec(spec, point).to_json()
            else:
                doc = copy_json(first)
                doc["seed"] = coerce(INT, point.seed, field="seed")
            cached.append(doc)
        object.__setattr__(spec, "_runspecs_cache", cached)
    return cached


def point_doc(spec: ScenarioSpec, point: Point) -> Dict[str, Any]:
    """The document that describes one point: ``index``, ``params`` and
    ``seed``, plus ``replicate`` when the spec is replicated (so an
    unreplicated document keeps its historical shape)."""
    doc = {"index": point.index, "params": dict(point.params), "seed": point.seed}
    if spec.replications != 1:
        doc["replicate"] = point.replicate
    return doc


def point_docs(spec: ScenarioSpec) -> List[Dict[str, Any]]:
    """Every point's :func:`point_doc`, with its canonical ``runspec``
    document added for ``machine`` scenarios — what the ledger header
    and ``exp show --json`` list."""
    docs = [point_doc(spec, point) for point in expand(spec)]
    if spec.runner == "machine":
        for doc, runspec in zip(docs, expanded_runspecs(spec)):
            doc["runspec"] = runspec
    return docs


def point_runspec(spec: ScenarioSpec, point: Point):
    """The canonical :class:`~repro.api.RunSpec` for one ``machine`` point.

    Raises :class:`~repro.errors.SpecError` for non-machine runners
    (figure and periodic points are not machine runs and have no RunSpec
    form) or for malformed point parameters.
    """
    from repro.api.specs import RunSpec
    from repro.errors import SpecError

    if spec.runner != "machine":
        raise SpecError(
            f"scenario {spec.name!r} uses runner {spec.runner!r}; "
            "only 'machine' points have a RunSpec form",
            field="runner", value=spec.runner, allowed=("machine",),
        )
    return RunSpec.from_params(point.params)


# -- registry -----------------------------------------------------------------

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the global registry (name must be unique)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_scenarios() -> Dict[str, ScenarioSpec]:
    """All registered scenarios, keyed by name (sorted)."""
    _ensure_builtin()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def _ensure_builtin() -> None:
    """Make sure the built-in registry entries are loaded.

    Lookup by name must work in freshly-spawned worker processes, which
    import this module without going through :mod:`repro.exp`.
    """
    from repro.exp import registry  # noqa: F401  (import populates _REGISTRY)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
