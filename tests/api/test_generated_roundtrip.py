"""Round-trip properties for *generated* nemesis schedules.

``tests/api/test_roundtrip.py`` pins the registered values; this suite
extends the guarantee to the random schedules the adversarial searcher
draws: every generated :class:`NemesisSpec` must parse back from its
spec string byte-identically and embed into a valid RunSpec (whose JSON
document carries it as that string) — otherwise a search ledger could name a
reproducer that the grammar cannot replay.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Experiment, NemesisSpec, RunSpec
from repro.faults import (
    GENERATABLE_MODELS,
    random_clause,
    random_nemesis,
)

SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_schedule_roundtrips_byte_identically(seed):
    spec = random_nemesis(random.Random(seed), n_processors=4, max_clauses=3)
    text = spec.to_spec_str()
    assert NemesisSpec.parse(text) == spec
    assert NemesisSpec.parse(text).to_spec_str() == text  # fixed point


@pytest.mark.parametrize("model", GENERATABLE_MODELS)
def test_every_generatable_model_roundtrips(model):
    rng = random.Random(0)
    for _ in range(10):
        clause = random_clause(rng, model, n_processors=8)
        spec = NemesisSpec((clause,))
        text = spec.to_spec_str()
        assert NemesisSpec.parse(text) == spec
        assert NemesisSpec.parse(text).to_spec_str() == text


@pytest.mark.parametrize("seed", list(SEEDS)[:10])
def test_generated_schedule_embeds_into_a_valid_runspec(seed):
    nemesis = random_nemesis(random.Random(seed), n_processors=4)
    spec = (
        Experiment.workload("balanced:3:2:10").processors(4)
        .nemesis(nemesis).build()
    )
    assert RunSpec.from_json(spec.to_json()) == spec
    assert spec.nemesis.to_spec_str() == nemesis.to_spec_str()


def test_generation_is_a_pure_function_of_the_rng():
    a = [random_nemesis(random.Random(7), 4, max_clauses=3) for _ in range(1)]
    b = [random_nemesis(random.Random(7), 4, max_clauses=3) for _ in range(1)]
    assert a == b
    stream_a = random.Random(7)
    stream_b = random.Random(7)
    for _ in range(10):
        assert random_nemesis(stream_a, 4) == random_nemesis(stream_b, 4)


def test_generated_schedules_respect_the_crash_family_cap():
    rng = random.Random(11)
    for _ in range(50):
        spec = random_nemesis(rng, 4, max_clauses=3)
        crash_family = [c for c in spec.clauses if c.model in ("crash", "cascade")]
        assert len(crash_family) <= 1
        for clause in crash_family:
            # node 0 hosts the root: never a seed victim
            assert dict(clause.params)["node"] != 0


def test_model_subset_is_honored():
    rng = random.Random(3)
    for _ in range(20):
        spec = random_nemesis(rng, 4, models=("jitter", "grayfail"))
        assert {c.model for c in spec.clauses} <= {"jitter", "grayfail"}


def test_unknown_model_subset_is_an_error():
    with pytest.raises(ValueError):
        random_nemesis(random.Random(0), 4, models=("nope",))
