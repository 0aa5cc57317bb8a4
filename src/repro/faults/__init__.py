"""Composable fault injection (the nemesis subsystem).

Beyond the paper's fail-silent crashes, this package provides a
registry of declarative fault models — crashes, correlated cascades,
healing partitions, message drop/duplicate/reorder, gray failures,
detector jitter — and a :class:`NemesisSchedule` combinator that arms
any composition of them onto one machine run, deterministically from
the run's seed.  See ``docs/FAULTS.md`` for the model catalog and
composition semantics, and ``repro faults list|describe`` on the CLI.
"""

from repro.faults.generate import (
    GENERATABLE_MODELS,
    mutate_nemesis,
    random_clause,
    random_nemesis,
    shrink_candidates,
    spec_size,
)
from repro.faults.model import FaultModel, Interception, NemesisSchedule
from repro.faults.models import (
    DROPPABLE,
    CascadingCrash,
    DetectorJitter,
    GrayFailure,
    MessageChaos,
    Partition,
    ScheduledCrash,
)
from repro.faults.registry import (
    ModelInfo,
    Param,
    all_models,
    get_model,
    register,
)

__all__ = [
    "DROPPABLE",
    "GENERATABLE_MODELS",
    "CascadingCrash",
    "DetectorJitter",
    "FaultModel",
    "GrayFailure",
    "Interception",
    "MessageChaos",
    "ModelInfo",
    "NemesisSchedule",
    "Param",
    "Partition",
    "ScheduledCrash",
    "all_models",
    "get_model",
    "mutate_nemesis",
    "random_clause",
    "random_nemesis",
    "register",
    "shrink_candidates",
    "spec_size",
]
