"""Property suite for the mutation grammar (Hypothesis).

:func:`repro.faults.generate.mutate_nemesis` is the step operator of
the coverage-guided searcher, so its contract is grammatical, not
statistical: *every* mutant of *every* generatable schedule must parse,
round-trip byte-identically through render -> reparse, and preserve the
generator's invariants (at most one crash-family clause, node 0 never a
crash-family victim).  Hypothesis drives seeded generator/mutator
chains across the whole model pool; the chains themselves must be pure
functions of the seed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.specs import NemesisSpec
from repro.errors import SpecError
from repro.faults.generate import (
    _MUTABLE_RANGES,
    GENERATABLE_MODELS,
    mutate_nemesis,
    random_clause,
    random_nemesis,
)

_CRASH_FAMILY = {"crash", "cascade"}

seeds = st.integers(min_value=0, max_value=2**31 - 1)
procs = st.integers(min_value=2, max_value=6)
pools = st.lists(
    st.sampled_from(GENERATABLE_MODELS), min_size=1, max_size=6, unique=True
)
chain_lengths = st.integers(min_value=1, max_value=8)


def _mutant_chain(seed, n_processors, pool, length):
    """One seeded generate-then-mutate chain, yielding every mutant."""
    rng = random.Random(seed)
    spec = random_nemesis(rng, n_processors, models=pool, max_clauses=2)
    out = [spec]
    for _ in range(length):
        spec = mutate_nemesis(rng, spec, n_processors, models=pool, max_clauses=3)
        out.append(spec)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=procs, pool=pools, length=chain_lengths)
def test_every_mutant_parses_and_roundtrips(seed, n, pool, length):
    for spec in _mutant_chain(seed, n, pool, length):
        rendered = spec.to_spec_str()
        reparsed = NemesisSpec.parse(rendered)
        # render -> reparse is byte-identical: one canonical spelling
        assert reparsed.to_spec_str() == rendered
        assert len(reparsed.clauses) == len(spec.clauses)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=procs, pool=pools, length=chain_lengths)
def test_mutants_preserve_the_generator_invariants(seed, n, pool, length):
    for spec in _mutant_chain(seed, n, pool, length):
        crash_clauses = [c for c in spec.clauses if c.model in _CRASH_FAMILY]
        assert len(crash_clauses) <= 1
        for clause in crash_clauses:
            # node 0 (the root host) is never a crash-family victim
            assert dict(clause.params)["node"] != 0
        assert 1 <= len(spec.clauses) <= 3


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=procs, pool=pools, length=chain_lengths)
def test_same_seed_chains_are_byte_deterministic(seed, n, pool, length):
    a = [s.to_spec_str() for s in _mutant_chain(seed, n, pool, length)]
    b = [s.to_spec_str() for s in _mutant_chain(seed, n, pool, length)]
    assert a == b


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=procs)
def test_mutating_an_empty_schedule_draws_a_fresh_one(seed, n):
    rng = random.Random(seed)
    mutant = mutate_nemesis(rng, NemesisSpec(), n)
    assert mutant.clauses
    assert NemesisSpec.parse(mutant.to_spec_str()).to_spec_str() == (
        mutant.to_spec_str()
    )


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=procs, pool=pools)
def test_mutation_moves_in_small_steps(seed, n, pool):
    """A single mutation changes clause count by at most one."""
    rng = random.Random(seed)
    spec = random_nemesis(rng, n, models=pool, max_clauses=2)
    mutant = mutate_nemesis(rng, spec, n, models=pool, max_clauses=3)
    assert abs(len(mutant.clauses) - len(spec.clauses)) <= 1


def _outside_bounds(clauses):
    """The ``(model, key, value)`` of every bounded value outside its
    ``_MUTABLE_RANGES`` bounds."""
    out = []
    for clause in clauses:
        for key, value in clause.params:
            bounds = _MUTABLE_RANGES.get((clause.model, key))
            if bounds is not None and not bounds[1] - 1e-9 <= value <= bounds[2] + 1e-9:
                out.append((clause.model, key, value))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=procs, model=st.sampled_from(GENERATABLE_MODELS))
def test_random_clause_draws_inside_the_mutation_bounds(seed, n, model):
    assert _outside_bounds([random_clause(random.Random(seed), model, n)]) == []


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=procs, pool=pools, length=chain_lengths)
def test_mutation_chains_stay_inside_the_bounds(seed, n, pool, length):
    for spec in _mutant_chain(seed, n, pool, length):
        assert _outside_bounds(spec.clauses) == []


def test_the_mutation_bounds_reach_beyond_the_draws():
    """Containment runs one way: mutation reaches values the generator
    never draws (changing a bound would move the search documents)."""
    rng = random.Random(0)
    drops = {dict(random_clause(rng, "chaos", 4).params)["drop"] for _ in range(300)}
    ats = {dict(random_clause(rng, "crash", 4).params)["at"] for _ in range(300)}
    assert max(drops) == 0.25 < _MUTABLE_RANGES[("chaos", "drop")][2] == 0.5
    assert (min(ats), max(ats)) == (0.1, 0.8)
    assert _MUTABLE_RANGES[("crash", "at")][1:] == (0.05, 0.9)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, at=st.floats(min_value=0.01, max_value=0.99), node=st.integers(1, 3))
def test_a_family_swap_keeps_the_timing_and_victim_exactly(seed, at, node):
    """The swap builds its clause from the values it keeps, so an
    off-grid time (a corpus seed's, say) crosses the family unrounded."""
    for model in ("crash", "cascade"):
        spec = NemesisSpec.parse(f"{model}:at={at!r},node={node}")
        mutant = mutate_nemesis(random.Random(seed), spec, 4, models=("crash", "cascade"))
        (clause,) = mutant.clauses
        if clause.model != model:  # the draw chose the swap
            params = dict(clause.params)
            assert (params["at"], params["node"]) == (at, node)


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: random_nemesis(rng, 4, models=("bogus",)),
        lambda rng: mutate_nemesis(rng, NemesisSpec.parse("jitter:max=10"), 4, models=("bogus",)),
        lambda rng: random_clause(rng, "bogus", 4),
    ],
    ids=["random_nemesis", "mutate_nemesis", "random_clause"],
)
def test_both_generators_refuse_an_unknown_model_by_one_rule(draw):
    with pytest.raises(SpecError) as excinfo:
        draw(random.Random(0))
    assert excinfo.value.field == "check.models"
    assert excinfo.value.allowed == GENERATABLE_MODELS
    assert str(excinfo.value).startswith("cannot generate fault model(s) ['bogus']")
