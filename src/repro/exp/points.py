"""Point runners: execute one scenario grid point, return a JSON dict.

Runners are pure functions ``params -> result dict`` registered by name
in :data:`RUNNERS`; scenario specs reference them by that name so specs
stay serializable, and a pool worker is handed the runner and one
point's parameters.  Every value in a result dict is a JSON primitive
(numbers, strings, bools, lists, dicts), which is what makes the on-disk
cache and the serial/parallel byte-parity guarantee possible.

The ``machine`` runner is :mod:`repro.api` itself: the point parameters
parse into a canonical :class:`~repro.api.RunSpec`
(``RunSpec.from_params``) and :func:`repro.api.session.execute` produces
the result record, so registry sweeps, ``repro run``, and programmatic
``Experiment`` runs share one execution path and one result shape.

A *seed-blind* machine point is run once per grid cell.  A run is blind
when it created no stream on its machine's :class:`~repro.util.rng.RngHub`
and armed no load generator (``RunResult.seed_blind``), and a point is
blind when its run and its fault-free baseline both were
(``RunHandle.seed_blind``).  Its record is then a pure function of its
spec without the seed, so the runner keeps it in a process-wide memo
keyed by the compact canonical JSON of the point's parameters without
``seed`` (the parameters determine the spec, so the key needs no parse).
Another replicate of the cell gets an independent copy with its own
``seed``, which a hit checks exactly as ``RunSpec.from_params`` does; a
point without a ``seed`` is never a hit, so it fails as a miss does.
The memo is a pure function of its key, so serial and pooled sweeps stay
byte-identical.

Parameter conventions for the ``machine`` runner (all JSON values):

``workload``
    A name from :data:`repro.workloads.suite.WORKLOADS`, a synthetic
    tree spec (``balanced:DEPTH:FANOUT:WORK``, ``chain:LEN:WORK``,
    ``wide:WIDTH:WORK``, ``skewed:DEPTH:FANOUT:WORK``,
    ``random:SEED:TASKS``), or an interpreter program
    (``prog:NAME:ARG:...``, e.g. ``prog:tak:7:4:2``).
``policy``
    ``none`` | ``rollback`` | ``splice`` | ``reversible`` |
    ``incremental[:persist=MODE]`` | ``replicated[:K]``.
``fault_frac`` / ``victim``
    Kill ``victim`` at ``fault_frac x`` the fault-free makespan.
``faults``
    Multi-fault schedule as ``"FRAC:NODE+FRAC:NODE"`` (fractions of the
    fault-free makespan); empty string means no faults.
``base_policy``
    Policy whose fault-free run defines the baseline makespan used for
    fault placement and slowdown (defaults to the point's own policy).
``speedup_base_processors``
    Also run fault-free at this processor count and report ``speedup``.
``nemesis``
    A fault-model spec (see :class:`repro.api.NemesisSpec`), e.g.
    ``"partition:start=0.3,dur=0.25,group=0-1"``; time-like parameters
    are fractions of the baseline makespan, like ``fault_frac``.  Empty
    string means no nemesis.

Malformed spec strings raise :class:`~repro.errors.SpecError` with the
offending token, the allowed values, and its position in the string.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Any, Callable, Dict, Mapping

from repro.api.session import execute
from repro.api.specs import FaultSpec, MachineSpec, PolicySpec, RunSpec, WorkloadSpec
from repro.load.grammar import INT, coerce
from repro.util.jsonio import compact_dumps, copy_json

# -- runners ------------------------------------------------------------------

#: The first record of each seed-blind cell, keyed by the compact JSON of
#: its point parameters without ``seed`` (see the module docstring).
_seed_blind_records: Dict[str, Dict[str, Any]] = {}


def run_machine_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One machine run (optionally faulted), as a flat JSON dict."""
    cell = compact_dumps({key: value for key, value in params.items() if key != "seed"})
    first = _seed_blind_records.get(cell) if "seed" in params else None
    if first is not None:
        record = copy_json(first)
        record["seed"] = coerce(INT, params["seed"], field="seed")
        return record
    handle = execute(RunSpec.from_params(params))
    if handle.seed_blind:
        _seed_blind_records[cell] = copy_json(handle.record)
    return handle.record


def run_figure_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Reproduce one paper figure and report its pass/fail + rendering."""
    from repro.analysis import figures

    report = figures.FIGURES[params["figure"]]()
    return report.as_dict()


@lru_cache(maxsize=None)
def _periodic_base_makespan(depth: int, fanout: int, work: int, processors: int) -> float:
    """Makespan of the unsynchronized periodic executor (pure, memoized —
    every point of a periodic sweep anchors fault times on the same run)."""
    from repro.baselines import PeriodicCheckpointSimulator
    from repro.workloads.trees import balanced_tree

    spec = balanced_tree(depth, fanout, work)
    return PeriodicCheckpointSimulator(spec, processors, interval=10**9).run().makespan


def run_periodic_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Periodic-vs-functional checkpointing comparison (one scheme).

    ``scheme`` is ``periodic:INTERVAL`` or ``functional:POLICY``; every
    other parameter is read as given (``periodic-baseline`` sets them).
    The fault time is ``fault_frac x`` the unsynchronized periodic
    executor's makespan, derived per point so points stay independent.
    """
    from repro.baselines import PeriodicCheckpointSimulator
    from repro.workloads.trees import balanced_tree

    depth = int(params["depth"])
    fanout = int(params["fanout"])
    work = int(params["work"])
    processors = int(params["processors"])
    fault_time = float(params["fault_frac"]) * _periodic_base_makespan(
        depth, fanout, work, processors
    )

    scheme = str(params["scheme"])
    kind, _, arg = scheme.partition(":")
    if kind == "periodic":
        spec, interval = balanced_tree(depth, fanout, work), float(arg)
        ff = PeriodicCheckpointSimulator(spec, processors, interval=interval).run()
        faulted = PeriodicCheckpointSimulator(spec, processors, interval=interval).run(
            fault_time=fault_time
        )
        sync_time, lost_work = round(ff.checkpoint_time, 6), round(faulted.lost_work, 6)
        verified = faulted.completed
    elif kind == "functional":
        fault_free = RunSpec(
            WorkloadSpec("balanced", args=(depth, fanout, work)),
            PolicySpec.parse(arg),
            MachineSpec(processors=processors),
            seed=int(params["seed"]),
        )
        crash = FaultSpec(((fault_time, int(params["victim"])),), "time")
        ff = execute(fault_free).result
        faulted = execute(replace(fault_free, faults=crash)).result
        sync_time, lost_work = 0.0, float(faulted.metrics.steps_wasted)
        verified = faulted.verified
    else:
        raise KeyError(f"unknown scheme {scheme!r}")
    return {
        "scheme": scheme,
        "fault_free_makespan": ff.makespan,
        "sync_time": sync_time,
        "faulted_makespan": faulted.makespan,
        "lost_work": lost_work,
        "completed": faulted.completed,
        "verified": verified,
    }


RUNNERS: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {
    "machine": run_machine_point,
    "figure": run_figure_point,
    "periodic": run_periodic_point,
}

#: Bump a runner's version whenever its result semantics change (new or
#: altered result keys, changed metric meanings): the version enters
#: every spec's cache identity, so stale on-disk sweep results are never
#: served after a runner change.  machine v2: nemesis support, the
#: recovery-quality counters, nodes_failed-based survivor stats, and the
#: delivery_failures double-count fix.  machine v3: the RunSpec refit —
#: results are byte-identical (golden digests pin it), but the cache
#: identity now derives from canonical RunSpec JSON.
RUNNER_VERSIONS: Dict[str, int] = {
    "machine": 3,
    "figure": 1,
    "periodic": 1,
}
