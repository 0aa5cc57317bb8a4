"""Grammar and round-trip properties for :class:`ArrivalSpec`.

The spec-string form is the address of an open-loop regime everywhere —
CLI flags, scenario axes, sweep cache keys, ledger run ids — so
``parse`` / ``to_spec_str`` must be a normal form.  The grammar rules
themselves (round trip, declaration order, unknown / duplicate /
missing / bad-valued parameters) are checked for every process by the
table-driven ``tests/api/test_grammar.py``; this file keeps what is
specific to arrivals: the empty spec, defaults, semantic validation and
the diagnostics pinned before the kernel existed.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.load import (
    ARRIVAL_PROCESSES,
    OVERFLOW_POLICIES,
    PROCESSES,
    ArrivalSpec,
)


class TestParse:
    def test_empty_spec_is_falsy_closed_loop(self):
        spec = ArrivalSpec.parse("")
        assert not spec
        assert spec.to_spec_str() == ""
        assert spec.expected_arrivals() == 0.0
        assert spec.build() is None

    def test_only_given_params_render(self):
        spec = ArrivalSpec.parse("poisson:rate=0.01,horizon=1500")
        assert "tasks" not in spec.to_spec_str()
        assert spec.resolved()["tasks"] == 8  # default still applies

    def test_unknown_process(self):
        with pytest.raises(SpecError, match="unknown arrival process"):
            ArrivalSpec.parse("pareto:rate=1,horizon=10")

    def test_duplicate_parameter(self):
        with pytest.raises(SpecError, match="duplicate parameter"):
            ArrivalSpec.parse("poisson:rate=1,rate=2,horizon=10")

    def test_malformed_pair(self):
        with pytest.raises(SpecError, match="key=value"):
            ArrivalSpec.parse("poisson:rate")

    def test_bad_overflow_choice(self):
        with pytest.raises(SpecError) as err:
            ArrivalSpec.parse("poisson:rate=1,horizon=10,overflow=explode")
        assert err.value.allowed == OVERFLOW_POLICIES

    def test_error_positions_point_into_the_spec(self):
        text = "poisson:rate=1,horizon=10,zzz=3"
        with pytest.raises(SpecError) as err:
            ArrivalSpec.parse(text)
        pos = err.value.position
        assert text[pos:].startswith("zzz")


class TestValidate:
    def test_nonpositive_rate(self):
        with pytest.raises(SpecError, match="must be > 0"):
            ArrivalSpec.parse("poisson:rate=0,horizon=10").validate()

    def test_nonpositive_horizon(self):
        with pytest.raises(SpecError, match="must be > 0"):
            ArrivalSpec.parse("diurnal:peak=0.1,horizon=-5").validate()

    def test_tiny_tree(self):
        with pytest.raises(SpecError, match="tasks"):
            ArrivalSpec.parse("poisson:rate=0.1,horizon=10,tasks=0").validate()

    def test_expected_arrival_budget(self):
        with pytest.raises(SpecError, match="expected arrivals"):
            ArrivalSpec.parse("poisson:rate=100,horizon=1000").validate()

    def test_registered_processes_all_validate(self):
        for text in (
            "poisson:rate=0.01,horizon=1000",
            "bursty:rate=0.05,on=100,off=300,horizon=1000",
            "diurnal:peak=0.02,horizon=1000,cap=4,overflow=backpressure",
        ):
            ArrivalSpec.parse(text).validate()


# -- generated specs over the full grammar ------------------------------------


def _value_strategy(info):
    if info.kind == "choice":
        return st.sampled_from(info.choices)
    if info.kind == "int":
        return st.integers(min_value=0, max_value=500)
    return st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def arrival_specs(draw):
    """A random spelling of a random spec over the full grammar.

    Returns ``(text, canonical_params)`` where ``text`` lists the given
    parameters in a *shuffled* order, so parsing must canonicalize.
    """
    process = draw(st.sampled_from(ARRIVAL_PROCESSES))
    table = PROCESSES[process]
    given = {}
    for name, info in table.items():
        if info.required or draw(st.booleans()):
            given[name] = draw(_value_strategy(info))
    items = draw(st.permutations(sorted(given)))
    text = process + ":" + ",".join(
        f"{k}={given[k] if isinstance(given[k], str) else repr(given[k])}"
        for k in items
    )
    return text, process, given


@given(arrival_specs())
def test_resolved_overlays_defaults_without_mutating_params(case):
    text, process, given = case
    spec = ArrivalSpec.parse(text)
    resolved = spec.resolved()
    assert set(resolved) == set(PROCESSES[process])
    for key, value in given.items():
        assert resolved[key] == value
    assert dict(spec.params) == given  # resolution is non-destructive
