"""Tests for named, seeded RNG streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import Pcg64, RngHub, _derive_seed


class TestDeriveSeed:
    def test_stable(self):
        assert _derive_seed(1, "a") == _derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert _derive_seed(1, "a") != _derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert _derive_seed(1, "a") != _derive_seed(2, "a")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_range(self, seed, name):
        value = _derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestRngHub:
    def test_same_seed_same_streams(self):
        a, b = RngHub(7).stream("x"), RngHub(7).stream("x")
        draws = [a.integers(0, 1000) for _ in range(10)]
        assert draws == [b.integers(0, 1000) for _ in range(10)]
        assert len(set(draws)) > 1

    def test_stream_identity_cached(self):
        hub = RngHub(7)
        assert hub.stream("x") is hub.stream("x")

    def test_streams_independent_of_creation_order(self):
        hub1 = RngHub(3)
        hub2 = RngHub(3)
        _ = hub1.stream("first")  # consume nothing, just create
        x1 = hub1.stream("second").integers(0, 10**9)
        x2 = hub2.stream("second").integers(0, 10**9)
        assert x1 == x2

    def test_draws_do_not_cross_streams(self):
        hub1 = RngHub(3)
        hub2 = RngHub(3)
        for _ in range(100):  # burn one stream
            hub1.stream("noise").integers(0, 10)
        a = hub1.stream("signal").integers(0, 10**9)
        b = hub2.stream("signal").integers(0, 10**9)
        assert a == b

    def test_spawn_differs_from_parent(self):
        hub = RngHub(3)
        child = hub.spawn("rep0")
        assert child.seed != hub.seed
        assert child.stream("x").integers(0, 10**9) != hub.stream("x").integers(
            0, 10**9
        )

    def test_spawn_reproducible(self):
        assert RngHub(3).spawn("r").seed == RngHub(3).spawn("r").seed

    def test_choice(self):
        hub = RngHub(0)
        options = ["a", "b", "c"]
        assert hub.choice("c", options) in options

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RngHub(0).choice("c", [])

    def test_uniform_bounds(self):
        hub = RngHub(5)
        for _ in range(100):
            v = hub.uniform("u", 2.0, 3.0)
            assert 2.0 <= v < 3.0

    def test_integers_bounds(self):
        hub = RngHub(5)
        for _ in range(100):
            v = hub.integers("i", -3, 4)
            assert -3 <= v < 4
            assert isinstance(v, int)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngHub("seed")  # type: ignore[arg-type]


# -- the stdlib PCG64 against numpy's Generator (PR 17) ------------------------
#
# numpy is the judge and nothing else: every stream the simulator draws
# from must be, draw for draw, what np.random.default_rng(seed) gave
# before it left the import graph — the golden digests ride on it.

#: ``high - low`` on each side of every branch of numpy's bounded-integer
#: code: no draw, 32-bit Lemire (buffered half-words), raw 32-bit, 64-bit
#: Lemire (rejection-heavy ones included), raw 64-bit.
SPANS = [1, 2, 7, 2**31, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 2**40,
         2**63 + 1, 2**64 - 1, 2**64]

bound = st.floats(min_value=-1e9, max_value=1e9)
width = st.floats(min_value=0.0, max_value=1e9)
ops = st.one_of(
    st.just(("uniform",)),
    st.tuples(bound, width).map(lambda lw: ("uniform", lw[0], lw[0] + lw[1])),
    st.sampled_from(SPANS).flatmap(
        lambda span: st.tuples(
            st.just("integers"),
            st.integers(-(2**63), 2**63 - span),
            st.just(span),
        )
    ),
)


def replay(gen, sequence):
    out = []
    for op in sequence:
        if op[0] == "uniform":
            out.append(float(gen.uniform(*op[1:])))
        else:
            out.append(int(gen.integers(op[1], op[1] + op[2])))
    return out


class TestPcg64AgainstNumpy:
    @given(
        root=st.integers(min_value=-(2**40), max_value=2**70),
        name=st.text(max_size=12),
        sequence=st.lists(ops, min_size=1, max_size=40),
    )
    def test_hub_stream_is_default_rng_of_the_derived_seed(self, root, name, sequence):
        judge = np.random.default_rng(_derive_seed(root, name))
        assert replay(RngHub(root).stream(name), sequence) == replay(judge, sequence)

    @given(
        seed=st.one_of(
            st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**96, 2**128 - 1]),
            st.integers(min_value=0, max_value=2**128 - 1),
        ),
        sequence=st.lists(ops, min_size=1, max_size=20),
    )
    def test_seeding_matches_seedsequence_for_every_pool_sized_seed(self, seed, sequence):
        assert replay(Pcg64(seed), sequence) == replay(np.random.default_rng(seed), sequence)

    def test_hub_methods_draw_from_the_named_stream(self):
        hub, judge = RngHub(11), np.random.default_rng(_derive_seed(11, "s"))
        got = [hub.uniform("s"), hub.integers("s", 3, 9), hub.uniform("s", 2.0, 5.0),
               hub.choice("s", "abcde"), hub.integers("s", 0, 2**40)]
        want = [float(judge.uniform()), int(judge.integers(3, 9)),
                float(judge.uniform(2.0, 5.0)), "abcde"[int(judge.integers(0, 5))],
                int(judge.integers(0, 2**40))]
        assert got == want

    def test_a_buffered_half_word_survives_uniform_draws(self):
        gen, judge = Pcg64(5), np.random.default_rng(5)
        sequence = [("integers", 0, 10), ("uniform",), ("uniform", 1.0, 2.0),
                    ("integers", 0, 2**40), ("integers", 0, 10), ("integers", 0, 10)]
        assert replay(gen, sequence) == replay(judge, sequence)

    def test_a_thousand_draws_of_one_stream(self):
        gen, judge = Pcg64(2**64 - 59), np.random.default_rng(2**64 - 59)
        sequence = [("integers", -5, 3 * 2**30), ("uniform",), ("integers", -(2**62), 2**63 + 1)] * 350
        assert replay(gen, sequence) == replay(judge, sequence)

    @pytest.mark.parametrize("low, high", [(3, 3), (4, 3), (-(2**63) - 1, 0), (0, 2**63 + 1)])
    def test_bad_ranges_raise_like_numpy(self, low, high):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(low, high)
        with pytest.raises(ValueError):
            Pcg64(0).integers(low, high)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_must_fit_the_pool(self, seed):
        with pytest.raises(ValueError):
            Pcg64(seed)
