"""The fault-model registry: the parameter tables of the nemesis grammar.

Every built-in model is registered here under a short name (``repro
faults list`` shows the table, ``repro faults describe NAME`` one
model's parameters).  A registry entry is a declaration — name, docs,
a ``{key: Param}`` table and a factory that takes every key of the table
(``NemesisSpec.build`` fills the table's defaults in, so a default is
written here once);
:class:`repro.api.NemesisSpec` parses spec strings against these tables
through the one clause grammar (:mod:`repro.load.grammar`) and arms the
models: ``NemesisSpec.parse(text).build(base_makespan)``.

Spec grammar (one line, shell- and JSON-safe):

    spec    := model ("+" model)*
    model   := NAME (":" kv ("," kv)*)?
    kv      := KEY "=" VALUE
    VALUE   := float | int | node-list        # node-list: "0-1-2"

Examples::

    crash:at=0.4,node=1
    partition:start=0.3,dur=0.25,group=0-1
    crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1,reorder=0.2+jitter:max=25

*Time-like* parameters (marked ``×T`` in ``faults describe``) are
fractions of a baseline makespan: ``NemesisSpec.build`` multiplies them
by its ``base_makespan`` argument, exactly as ``fault_frac`` does for
plain crash schedules.  Latency-scale parameters (``span``, ``max``,
``delay``) are absolute sim-time units, comparable to the cost model's
``hop_latency`` / ``detector_delay``.  Per-link probability mappings are
a Python-API-only feature — the grammar exposes global probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

from repro.faults.model import FaultModel
from repro.faults.models import (
    CascadingCrash,
    DetectorJitter,
    GrayFailure,
    MessageChaos,
    Partition,
    ScheduledCrash,
)
from repro.load.grammar import Param
from repro.sim.failure import FaultSchedule


@dataclass(frozen=True)
class ModelInfo:
    """Registry entry: name, docs, parameters, and the factory."""

    name: str
    summary: str
    params: Mapping[str, Param]
    build: Callable[..., FaultModel]
    example: str


_REGISTRY: Dict[str, ModelInfo] = {}


def register(info: ModelInfo) -> ModelInfo:
    if info.name in _REGISTRY:
        raise ValueError(f"fault model {info.name!r} already registered")
    _REGISTRY[info.name] = info
    return info


def get_model(name: str) -> ModelInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fault model {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_models() -> Dict[str, ModelInfo]:
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def param_tables() -> Dict[str, Mapping[str, Param]]:
    """``{model name: parameter table}`` — what the clause grammar parses against."""
    return {name: info.params for name, info in _REGISTRY.items()}


# -- built-in entries ----------------------------------------------------------

register(
    ModelInfo(
        name="crash",
        summary="fail-silent processor crash (the paper's fault model)",
        params={
            "at": Param("float", None, "crash time", fraction=True),
            "node": Param("int", None, "processor to kill"),
        },
        build=lambda at, node: ScheduledCrash(FaultSchedule.single(at, int(node))),
        example="crash:at=0.4,node=1",
    )
)

register(
    ModelInfo(
        name="cascade",
        summary="correlated multi-crash spreading from a seed failure",
        params={
            "at": Param("float", None, "seed crash time", fraction=True),
            "node": Param("int", None, "seed processor"),
            "prob": Param("float", 0.5, "per-processor spread probability"),
            "delay": Param("float", 40.0, "gap between cascade deaths"),
            "max": Param("int", 0, "victim cap (0 = processors - 1)"),
        },
        build=lambda at, node, prob, delay, max: CascadingCrash(
            at, int(node), spread_prob=prob, spread_delay=delay,
            max_victims=int(max) or None,
        ),
        example="cascade:at=0.3,node=2,prob=0.4",
    )
)

register(
    ModelInfo(
        name="partition",
        summary="network partition with heal (group vs the rest)",
        params={
            "start": Param("float", None, "partition start", fraction=True),
            "dur": Param("float", None, "partition duration", fraction=True),
            "group": Param("nodes", None, "processors on side A, e.g. 0-1"),
        },
        build=lambda start, dur, group: Partition(start, dur, group),
        example="partition:start=0.3,dur=0.25,group=0-1",
    )
)

register(
    ModelInfo(
        name="chaos",
        summary="message drop / duplicate / reorder with probabilities",
        params={
            "drop": Param("float", 0.0, "drop probability (task packets + acks)"),
            "dup": Param("float", 0.0, "duplicate probability (any message)"),
            "reorder": Param("float", 0.0, "extra-delay probability (any message)"),
            "span": Param("float", 30.0, "max extra latency for dup/reorder"),
            "notify": Param("flag", 0, "1 = drops notify the sender (loss detection)"),
            "start": Param("float", 0.0, "window start", fraction=True),
            "dur": Param("float", float("inf"), "window length", fraction=True),
        },
        build=lambda drop, dup, reorder, span, notify, start, dur: MessageChaos(
            drop=drop, duplicate=dup, reorder=reorder, span=span,
            notify_drops=bool(notify), start=start, duration=dur,
        ),
        example="chaos:drop=0.05,dup=0.1,reorder=0.2,span=40",
    )
)

register(
    ModelInfo(
        name="grayfail",
        summary="transient node slowdown (gray failure)",
        params={
            "node": Param("int", None, "slowed processor"),
            "start": Param("float", None, "slowdown start", fraction=True),
            "dur": Param("float", None, "slowdown duration", fraction=True),
            "factor": Param("float", 4.0, "step-time multiplier (>= 1)"),
        },
        build=lambda node, start, dur, factor: GrayFailure(
            int(node), start, dur, factor=factor
        ),
        example="grayfail:node=1,start=0.2,dur=0.5,factor=4",
    )
)

register(
    ModelInfo(
        name="jitter",
        summary="randomized failure-detector latency",
        params={
            "max": Param("float", 20.0, "max extra notice delay"),
        },
        build=lambda max: DetectorJitter(max_extra=max),
        example="jitter:max=25",
    )
)
