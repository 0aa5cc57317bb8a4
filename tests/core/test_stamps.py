"""Tests for level stamps (paper §3.1)."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.stamps import LevelStamp, topmost

# Stamps with int digits and tuple digits (the generic-digit licence).
int_digits = st.integers(min_value=0, max_value=5)
tuple_digits = st.tuples(int_digits, int_digits)
digits = st.one_of(int_digits, tuple_digits)
stamps = st.lists(digits, max_size=6).map(lambda ds: LevelStamp.of(*ds))


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


class _TupleStamp:
    """A stamp as the tuple of every digit from the root, with genealogy
    as prefix slices — §3.1 read literally.  The judge the node stamp
    (parent link, digit, depth, hash) must agree with."""

    def __init__(self, digits):
        self.digits = tuple(digits)

    def parent(self):
        if not self.digits:
            raise ValueError("the root stamp has no parent")
        return self.digits[:-1]

    def ancestor_at(self, depth):
        return self.digits[:depth]

    def last_digit(self):
        if not self.digits:
            raise ValueError("the root stamp has no digits")
        return self.digits[-1]

    def is_ancestor_of(self, other):
        n = len(self.digits)
        return n < len(other.digits) and other.digits[:n] == self.digits

    def is_parent_of(self, other):
        n = len(self.digits)
        return len(other.digits) == n + 1 and other.digits[:n] == self.digits

    def sort_key(self):
        return tuple(
            (0, digit, ()) if isinstance(digit, int) else (1, -1, digit)
            for digit in self.digits
        )

    def __str__(self):
        if not self.digits:
            return "ε"
        return ".".join(
            str(d) if isinstance(d, int) else "(" + "-".join(str(x) for x in d) + ")"
            for d in self.digits
        )


def _chain(stamp, digits):
    """Stamp ``digits`` below ``stamp`` one ``child()`` at a time."""
    for digit in digits:
        stamp = stamp.child(digit)
    return stamp


# A small alphabet, so that independently drawn stamps often share a
# prefix or are equal: ints and int tuples (including the empty tuple).
_digit = st.one_of(st.integers(0, 2), st.lists(st.integers(0, 1), max_size=2).map(tuple))
_path = st.lists(_digit, max_size=64)


class TestAgainstTheTupleReference:
    @given(_path)
    def test_every_derivation_agrees(self, ds):
        stamp, ref = LevelStamp.of(*ds), _TupleStamp(ds)
        assert stamp.digits == ref.digits
        assert stamp.depth == len(ds)
        assert stamp.is_root == (not ds)
        assert str(stamp) == str(ref)
        assert stamp.sort_key() == ref.sort_key()
        for depth in range(len(ds) + 1):
            assert stamp.ancestor_at(depth).digits == ref.ancestor_at(depth)
        if ds:
            assert stamp.parent().digits == ref.parent()
            assert stamp.last_digit == ref.last_digit()
        else:
            with pytest.raises(ValueError):
                stamp.parent()
            with pytest.raises(ValueError):
                stamp.last_digit

    @given(_path)
    def test_stamps_built_apart_are_equal_with_equal_hashes(self, ds):
        built, chained = LevelStamp.of(*ds), _chain(LevelStamp.root(), ds)
        assert built == chained and not built != chained
        assert hash(built) == hash(chained)
        assert {built: 1}[chained] == 1

    @given(_path, _path, _path, st.booleans(), st.booleans())
    def test_genealogy_agrees(self, prefix, tail_a, tail_b, share_a, share_b):
        # Either below one shared parent object or built apart from the root.
        shared = LevelStamp.of(*prefix)
        a = _chain(shared, tail_a) if share_a else LevelStamp.of(*prefix, *tail_a)
        b = _chain(shared, tail_b) if share_b else LevelStamp.of(*prefix, *tail_b)
        ref_a, ref_b = _TupleStamp(prefix + tail_a), _TupleStamp(prefix + tail_b)
        assert (a == b) == (ref_a.digits == ref_b.digits)
        if a == b:
            assert hash(a) == hash(b)
        for x, y, rx, ry in ((a, b, ref_a, ref_b), (b, a, ref_b, ref_a)):
            assert x.is_ancestor_of(y) == rx.is_ancestor_of(ry)
            assert x.is_parent_of(y) == rx.is_parent_of(ry)

    @given(st.lists(st.tuples(_path, st.booleans()), max_size=12))
    def test_topmost_agrees(self, drawn):
        shared = LevelStamp.of(0)
        items = [
            _chain(shared, ds) if share else LevelStamp.of(0, *ds) for ds, share in drawn
        ]
        refs = [_TupleStamp((0, *ds)) for ds, _ in drawn]
        want = {
            r.digits
            for r in refs
            if not any(o.is_ancestor_of(r) for o in refs)
        }
        kept = topmost(items)
        assert [s.digits for s in kept] == sorted(
            want, key=lambda ds: _TupleStamp(ds).sort_key()
        )

    def test_a_deep_stamp_pickles_without_recursion(self):
        ds = [i % 3 if i % 2 else (i % 2, i % 5) for i in range(5000)]
        stamp = _chain(LevelStamp.root(), ds)
        copy = pickle.loads(pickle.dumps(stamp))
        assert copy is not stamp
        assert copy == stamp and hash(copy) == hash(stamp)
        assert copy.digits == tuple(ds)
        assert pickle.loads(pickle.dumps(LevelStamp.root())) is LevelStamp.root()
