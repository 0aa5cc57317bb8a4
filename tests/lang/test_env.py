"""Tests for immutable lexical environments."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import UnboundVariableError
from repro.lang.env import EMPTY_ENV, Env


class TestEnv:
    def test_lookup_unbound_raises(self):
        with pytest.raises(UnboundVariableError):
            EMPTY_ENV.lookup("x")

    def test_extend_binds(self):
        env = EMPTY_ENV.extend(["x"], [1])
        assert env.lookup("x") == 1

    def test_extend_does_not_mutate_parent(self):
        child = EMPTY_ENV.extend(["x"], [1])
        assert "x" in child
        assert "x" not in EMPTY_ENV

    def test_shadowing(self):
        outer = EMPTY_ENV.extend(["x", "y"], [1, 2])
        inner = outer.extend(["x"], [10])
        assert inner.lookup("x") == 10
        assert inner.lookup("y") == 2
        assert outer.lookup("x") == 1

    def test_extend_length_mismatch(self):
        with pytest.raises(ValueError):
            EMPTY_ENV.extend(["x", "y"], [1])

    def test_contains(self):
        env = EMPTY_ENV.extend(["a"], [1]).extend(["b"], [2])
        assert "a" in env and "b" in env and "c" not in env

    def test_depth(self):
        assert EMPTY_ENV.depth() == 1
        assert EMPTY_ENV.extend([], []).depth() == 2

    @given(
        st.dictionaries(st.text(min_size=1, max_size=4), st.integers(), max_size=6),
        st.dictionaries(st.text(min_size=1, max_size=4), st.integers(), max_size=6),
    )
    def test_lookup_matches_dict_semantics(self, outer, inner):
        """An env chain behaves like dict.update composition."""
        env = Env(outer).extend(inner.keys(), inner.values())
        merged = {**outer, **inner}
        for key, value in merged.items():
            assert env.lookup(key) == value
