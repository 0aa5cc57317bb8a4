"""Shrinking tests: deterministic minimization of violating schedules.

Pins the satellite guarantee: a seeded known-violation schedule shrinks
to the same minimal reproducer every time, the minimal schedule still
violates, and none of its own shrink candidates do (local minimality).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Experiment
from repro.api.specs import NemesisSpec
from repro.check import CheckConfig, check_spec, shrink
from repro.faults import shrink_candidates, spec_size

BASE = (
    Experiment.workload("balanced:3:2:10").policy("rollback")
    .processors(4).seed(0).build()
)

#: A hand-written schedule known to violate (the notified one-sided
#: drop regime plus a decoy jitter clause the shrinker should discard).
VIOLATING = "chaos:drop=0.2,dup=0.1,notify=1,start=0.1,dur=0.6+jitter:max=25"


def _violations(nemesis: NemesisSpec):
    _, report = check_spec(replace(BASE, nemesis=nemesis).validate(), CheckConfig())
    return report.violations


class TestShrinkCandidates:
    def test_enumeration_is_deterministic(self):
        spec = NemesisSpec.parse(VIOLATING)
        first = [c.to_spec_str() for c in shrink_candidates(spec)]
        second = [c.to_spec_str() for c in shrink_candidates(spec)]
        assert first == second and first

    def test_every_candidate_is_strictly_smaller(self):
        spec = NemesisSpec.parse(VIOLATING)
        for candidate in shrink_candidates(spec):
            assert spec_size(candidate) < spec_size(spec)

    def test_candidates_cover_clause_param_and_value_shrinks(self):
        spec = NemesisSpec.parse(VIOLATING)
        rendered = [c.to_spec_str() for c in shrink_candidates(spec)]
        assert "jitter:max=25" in rendered  # dropped the chaos clause
        assert any("+jitter:max=12.5" in r for r in rendered)  # halved a value
        assert any("dup" not in r and "+jitter" in r for r in rendered)  # dropped a param

    def test_minimal_schedules_have_no_candidates(self):
        assert shrink_candidates(NemesisSpec.parse("jitter")) == []

    def test_required_params_are_never_removed(self):
        for candidate in shrink_candidates(NemesisSpec.parse("crash:at=0.4,node=1")):
            text = candidate.to_spec_str()
            assert "at=" in text and "node=" in text


class TestShrink:
    @pytest.fixture(scope="class")
    def shrunk(self):
        nemesis = NemesisSpec.parse(VIOLATING)
        assert _violations(nemesis)
        return shrink(BASE, nemesis)

    def test_known_violation_shrinks_deterministically(self, shrunk):
        minimal, trail = shrunk
        again_minimal, again_trail = shrink(BASE, NemesisSpec.parse(VIOLATING))
        assert minimal == again_minimal
        assert trail == again_trail

    def test_minimal_still_violates(self, shrunk):
        minimal, _ = shrunk
        assert _violations(minimal)

    def test_minimal_is_locally_minimal(self, shrunk):
        minimal, _ = shrunk
        for candidate in shrink_candidates(minimal):
            assert not _violations(candidate)

    def test_shrinking_discards_the_decoy_clause(self, shrunk):
        minimal, trail = shrunk
        assert all(c.model != "jitter" for c in minimal.clauses)
        assert trail  # at least one accepted shrink step
        assert spec_size(minimal) < spec_size(NemesisSpec.parse(VIOLATING))
