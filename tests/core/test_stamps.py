"""Tests for level stamps (paper §3.1)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.stamps import LevelStamp, topmost

# Stamps with int digits and tuple digits (the generic-digit licence).
int_digits = st.integers(min_value=0, max_value=5)
tuple_digits = st.tuples(int_digits, int_digits)
digits = st.one_of(int_digits, tuple_digits)
stamps = st.lists(digits, max_size=6).map(lambda ds: LevelStamp(tuple(ds)))


class TestConstruction:
    def test_root_is_empty(self):
        root = LevelStamp.root()
        assert root.is_root
        assert root.depth == 0
        assert str(root) == "ε"

    def test_of(self):
        s = LevelStamp.of(0, 2, 1)
        assert s.digits == (0, 2, 1)
        assert s.depth == 3

    def test_child_appends(self):
        s = LevelStamp.of(1).child(2)
        assert s.digits == (1, 2)

    def test_tuple_digits_allowed(self):
        s = LevelStamp.of((0, 1), 3)
        assert s.depth == 2
        assert "(0-1)" in str(s)

    def test_bool_digit_rejected(self):
        with pytest.raises(TypeError):
            LevelStamp.of(True)

    def test_invalid_digit_rejected(self):
        with pytest.raises(TypeError):
            LevelStamp.of("x")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            LevelStamp.of((1, "y"))  # type: ignore[arg-type]

    def test_parent(self):
        assert LevelStamp.of(1, 2).parent() == LevelStamp.of(1)

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            LevelStamp.root().parent()

    def test_last_digit(self):
        assert LevelStamp.of(1, (2, 3)).last_digit == (2, 3)
        with pytest.raises(ValueError):
            LevelStamp.root().last_digit

    def test_ancestor_at(self):
        s = LevelStamp.of(1, 2, 3)
        assert s.ancestor_at(0) == LevelStamp.root()
        assert s.ancestor_at(2) == LevelStamp.of(1, 2)
        with pytest.raises(ValueError):
            s.ancestor_at(4)


class TestGenealogy:
    def test_ancestor_strict(self):
        a = LevelStamp.of(0)
        b = LevelStamp.of(0, 1)
        assert a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)
        assert not a.is_ancestor_of(a)

    def test_parent_predicate(self):
        g = LevelStamp.of(0)
        p = g.child(1)
        c = p.child(2)
        assert g.is_parent_of(p)
        assert not g.is_parent_of(c)

    def test_unrelated(self):
        a = LevelStamp.of(0, 1)
        b = LevelStamp.of(1, 0)
        assert not a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)

    @given(stamps, digits)
    def test_child_parent_roundtrip(self, stamp, digit):
        assert stamp.child(digit).parent() == stamp

    @given(stamps, stamps)
    def test_ancestor_is_strict_partial_order(self, a, b):
        # antisymmetry
        assert not (a.is_ancestor_of(b) and b.is_ancestor_of(a))
        # irreflexivity
        assert not a.is_ancestor_of(a)

    @given(stamps, stamps, stamps)
    def test_ancestor_transitive(self, a, b, c):
        if a.is_ancestor_of(b) and b.is_ancestor_of(c):
            assert a.is_ancestor_of(c)

    @given(stamps)
    def test_root_is_weak_ancestor_of_all(self, s):
        root = LevelStamp.root()
        assert root == s or root.is_ancestor_of(s)


class TestOrderingAndRendering:
    def test_sort_key_total_order_mixed_digits(self):
        items = [
            LevelStamp.of(1),
            LevelStamp.of((0, 1)),
            LevelStamp.of(0),
            LevelStamp.root(),
        ]
        ordered = sorted(items, key=LevelStamp.sort_key)
        assert ordered[0] == LevelStamp.root()

    def test_str_int_digits(self):
        assert str(LevelStamp.of(0, 1, 2)) == "0.1.2"

    def test_hashable(self):
        assert len({LevelStamp.of(0), LevelStamp.of(0), LevelStamp.of(1)}) == 2

    @given(stamps, stamps)
    def test_str_injective_on_samples(self, a, b):
        if str(a) == str(b):
            assert a == b


class TestTopmost:
    def test_removes_descendants(self):
        a = LevelStamp.of(0)
        kept = topmost([a, a.child(1), a.child(1).child(2), LevelStamp.of(1)])
        assert set(kept) == {a, LevelStamp.of(1)}

    def test_empty(self):
        assert topmost([]) == ()

    def test_duplicates_collapse(self):
        a = LevelStamp.of(3)
        assert topmost([a, a]) == (a,)

    @given(st.lists(stamps, max_size=12))
    def test_antichain_and_cover(self, items):
        kept = topmost(items)
        # antichain: no kept stamp is an ancestor of another
        for x in kept:
            for y in kept:
                if x is not y:
                    assert not x.is_ancestor_of(y)
        # cover: every input is a weak descendant of exactly one kept stamp
        for s in items:
            covers = [k for k in kept if k == s or k.is_ancestor_of(s)]
            assert len(covers) == 1
