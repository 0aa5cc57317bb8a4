"""File -> layer map and the cProfile attribution built on it.

A layer is a module path under ``src/repro/``.  Packages whose modules
the simulator core splits finely (``sim``, ``core``, ``api``, ``exp``,
``check``, ``util``) are mapped file by file, so a new module there has
no layer until someone gives it one (``test_bench_layers.py`` fails);
the other packages map as a whole.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

FILES: Dict[str, str] = {
    "sim/events.py": "sim.events",
    "sim/network.py": "sim.network",
    "sim/node.py": "sim.node",
    "sim/machine.py": "sim.machine",
    "sim/loadbalance.py": "sim.loadbalance",
    "sim/trace.py": "sim.trace",
    "sim/failure.py": "sim.failure",
    "sim/task.py": "sim.task",
    "sim/behavior.py": "sim.task",
    "sim/messages.py": "sim.task",
    "sim/workload.py": "sim.task",
    "sim/metrics.py": "sim.task",
    "sim/topology.py": "sim.task",
    "sim/__init__.py": "sim.task",
    "core/checkpoint.py": "core.checkpoint",
    "core/stamps.py": "core.stamps",
    "core/rollback.py": "core.rollback",
    "core/splice.py": "core.splice",
    "core/policy.py": "core.policy",
    "core/packets.py": "core.policy",
    "core/superroot.py": "core.policy",
    "core/cases.py": "core.policy",
    "core/replication.py": "core.policy",
    "core/__init__.py": "core.policy",
    "api/specs.py": "api.specs",
    "api/session.py": "api.session",
    "api/__init__.py": "api.session",
    "exp/scenario.py": "exp.scenario",
    "exp/registry.py": "exp.scenario",
    "exp/points.py": "exp.scenario",
    "exp/__init__.py": "exp.scenario",
    "exp/runner.py": "exp.runner",
    "exp/ledger.py": "exp.ledger",
    "check/oracles.py": "check.oracles",
    "check/coverage.py": "check.coverage",
    "check/search.py": "check.search",
    "check/corpus.py": "check.search",
    "check/__init__.py": "check.search",
    "util/jsonio.py": "util.jsonio",
    "util/rng.py": "util.rng",
    "util/stats.py": "util.stats",
    "util/idgen.py": "other",
    "util/tables.py": "other",
    "util/__init__.py": "other",
    "__init__.py": "other",
    "__main__.py": "other",
    "cli.py": "other",
    "config.py": "other",
    "errors.py": "other",
}

PACKAGES: Dict[str, str] = {
    "policies": "policies",
    "faults": "faults",
    "load": "load",
    "workloads": "workloads",
    "lang": "workloads",
    "report": "report",
    "analysis": "other",
    "baselines": "other",
    "perf": "other",
}

#: Layers that make up the simulator core (the rest is orchestration).
CORE_PREFIXES: Tuple[str, ...] = ("sim.", "core.")


def layer_of_source(relpath: str) -> Optional[str]:
    """Layer of one file given relative to ``src/repro/``; None if unmapped."""
    relpath = relpath.replace(os.sep, "/")
    if relpath in FILES:
        return FILES[relpath]
    return PACKAGES.get(relpath.split("/", 1)[0]) if "/" in relpath else None


def _layer_of_function(func: Tuple[str, int, str], src_root: str) -> Optional[str]:
    """Layer of one profiled function; None for a builtin (file ``~``)."""
    filename, _, name = func
    if filename == "~":
        return "util.jsonio" if "_json." in name else None
    if filename.startswith(src_root):
        return layer_of_source(os.path.relpath(filename, src_root)) or "other"
    if os.sep + "json" + os.sep in filename:
        return "util.jsonio"
    return "other"


def attribute(stats: Dict[Any, Any], src_root: str) -> Dict[str, Dict[str, float]]:
    """Group ``pstats`` rows into ``{layer: {"self_s", "calls"}}``.

    ``stats`` is ``pstats.Stats(profile).stats``.  Self time (``tottime``)
    and call count of a Python function go to its file's layer.  A
    builtin (``heappush``, ``dict.get``, ...) has no file, so its time
    goes to the layers of the functions that called it, split as the
    profile's per-caller rows say; called from another builtin it is
    ``other``.
    """
    src_root = os.path.join(os.path.abspath(src_root), "")
    out: Dict[str, Dict[str, float]] = {}

    def add(layer: str, calls: int, seconds: float) -> None:
        row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += seconds
        row["calls"] += calls

    for func, (_, ncalls, tottime, _, callers) in stats.items():
        layer = _layer_of_function(func, src_root)
        if layer is not None:
            add(layer, ncalls, tottime)
            continue
        for caller, (caller_calls, _, caller_tottime, _) in callers.items():
            add(_layer_of_function(caller, src_root) or "other",
                caller_calls, caller_tottime)
            ncalls -= caller_calls
            tottime -= caller_tottime
        add("other", ncalls, tottime)  # called from outside the profile
    return out
