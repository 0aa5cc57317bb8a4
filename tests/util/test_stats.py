"""Tests for summary statistics."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.util import stats
from repro.util.stats import (
    Summary,
    _resampled_medians,
    bootstrap_delta_ci,
    bootstrap_median_ci,
    percentiles,
    quartiles,
    summarize,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSummarize:
    def test_single_value(self):
        s = summarize([3.0])
        assert s.n == 1
        assert s.mean == 3.0
        assert s.std == 0.0
        assert s.minimum == s.maximum == s.median == 3.0

    def test_known_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_bounds_property(self, values):
        s = summarize(values)
        # float summation can place the mean a few ulp outside [min, max]
        tol = 1e-9 * max(1.0, abs(s.minimum), abs(s.maximum))
        assert s.minimum <= s.median <= s.maximum
        assert s.minimum - tol <= s.mean <= s.maximum + tol
        assert s.n == len(values)

    def test_str_contains_fields(self):
        text = str(summarize([1.0, 2.0]))
        assert "mean" in text and "n=2" in text


class TestQuartiles:
    def test_known(self):
        q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q1, med, q3) == (2.0, 3.0, 4.0)

    def test_singleton_degenerates(self):
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quartiles([])

    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_ordered_and_bounded(self, values):
        q1, med, q3 = quartiles(values)
        assert min(values) <= q1 <= med <= q3 <= max(values)


class TestBootstrapMedianCI:
    def test_deterministic_for_fixed_seed(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        assert bootstrap_median_ci(values, seed=7) == bootstrap_median_ci(
            values, seed=7
        )

    def test_contains_median_and_is_bounded(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        lo, hi = bootstrap_median_ci(values, seed=0)
        assert min(values) <= lo <= hi <= max(values)
        assert lo <= float(np.median(values)) <= hi

    def test_singleton_degenerates(self):
        assert bootstrap_median_ci([5.0]) == (5.0, 5.0)

    def test_constant_sample_zero_width(self):
        assert bootstrap_median_ci([2.0, 2.0, 2.0], seed=1) == (2.0, 2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci([])
        with pytest.raises(ValueError):
            bootstrap_median_ci([1.0], level=1.5)

    def test_wider_level_nests(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0, 0.5, 6.0]
        lo99, hi99 = bootstrap_median_ci(values, level=0.99, seed=3)
        lo80, hi80 = bootstrap_median_ci(values, level=0.80, seed=3)
        assert lo99 <= lo80 and hi80 <= hi99


class TestBootstrapDeltaCI:
    def test_both_singletons_exact(self):
        assert bootstrap_delta_ci([2.0], [5.0]) == (3.0, 3.0)

    def test_deterministic_and_sign_sensible(self):
        base = [10.0, 11.0, 12.0]
        other = [20.0, 21.0, 22.0]
        lo, hi = bootstrap_delta_ci(base, other, seed=4)
        assert (lo, hi) == bootstrap_delta_ci(base, other, seed=4)
        assert lo > 0  # clearly separated samples: CI excludes zero

    def test_identical_samples_cover_zero(self):
        lo, hi = bootstrap_delta_ci([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], seed=0)
        assert lo <= 0.0 <= hi

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bootstrap_delta_ci([], [1.0])


# -- the resampled-median kernel and the zero-spread return (PR 15) -----------
#
# The references below are the pre-change code, kept here so that "bit
# for bit what it was" stays a checked property: np.median per resample,
# and both interval functions drawing for every sample of two or more.


def reference_medians(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return np.median(arr[idx], axis=1)


def reference_median_ci(values, level=0.95, n_boot=1000, seed=0):
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, arr.size, size=(int(n_boot), arr.size))
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(
        reference_medians(arr, idx), [100.0 * alpha, 100.0 * (1.0 - alpha)]
    )
    return (float(lo), float(hi))


def reference_delta_ci(base, other, level=0.95, n_boot=1000, seed=0):
    a = np.asarray(list(base), dtype=float)
    b = np.asarray(list(other), dtype=float)
    if a.size == 1 and b.size == 1:
        return (float(b[0]) - float(a[0]),) * 2
    rng = np.random.Generator(np.random.PCG64(seed))
    idx_a = rng.integers(0, a.size, size=(int(n_boot), a.size))
    idx_b = rng.integers(0, b.size, size=(int(n_boot), b.size))
    deltas = reference_medians(b, idx_b) - reference_medians(a, idx_a)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(deltas, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return (float(lo), float(hi))


def bits(values) -> bytes:
    """The IEEE-754 bytes: tells -0.0 from 0.0, and every NaN is one NaN
    (a payload is the one thing nothing downstream can observe)."""
    arr = np.array(values, dtype=float)
    arr[np.isnan(arr)] = np.nan
    return arr.tobytes()


#: Ties, both zeros, NaN, both infinities, a subnormal, and values whose
#: sum overflows — what a sort and a partition could disagree about.
awkward = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, 7.0, 5e-324, 1e308, -1e308]
    + [math.nan, math.inf, -math.inf]
)
any_float = st.floats(allow_nan=True, allow_infinity=True)
samples = st.one_of(
    st.lists(awkward, min_size=1, max_size=9),
    st.lists(any_float, min_size=1, max_size=9),
    st.lists(st.integers(0, 3).map(float), min_size=2, max_size=12),  # count-like
    st.tuples(any_float, st.integers(1, 8)).map(lambda vn: [vn[0]] * vn[1]),
)
levels = st.sampled_from([0.5, 0.8, 0.95, 0.99])
n_boots = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**64 - 1)

quiet = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@quiet
class TestResampledMedianKernel:
    @given(values=samples, n_boot=n_boots, seed=seeds)
    def test_bit_identical_to_np_median(self, values, n_boot, seed):
        arr = np.asarray(values, dtype=float)
        idx = np.random.default_rng(seed).integers(0, arr.size, size=(n_boot, arr.size))
        assert bits(_resampled_medians(arr, idx)) == bits(reference_medians(arr, idx))

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, math.nan],  # n = 2
            [3.0, 1.0, math.nan, 2.0, 5.0],  # odd n: a sort alone would hide it
            [math.nan, math.nan, math.nan],
            [0.0, -0.0],
            [-0.0, -0.0, -0.0],
        ],
    )
    def test_nan_and_negative_zero_pinned(self, values):
        arr = np.asarray(values, dtype=float)
        idx = np.random.default_rng(1).integers(0, arr.size, size=(64, arr.size))
        got = _resampled_medians(arr, idx)
        assert bits(got) == bits(reference_medians(arr, idx))
        if any(math.isnan(v) for v in values):
            assert np.isnan(got).any()
        else:
            assert not np.signbit(got).any()  # np.mean's sum starts from +0.0

    def test_a_nan_sample_still_gives_nan_intervals(self):
        values = [1.0, 2.0, math.nan, 4.0]
        assert all(math.isnan(v) for v in bootstrap_median_ci(values, seed=5))
        assert all(math.isnan(v) for v in bootstrap_delta_ci(values, [1.0, 2.0], seed=5))


@quiet
class TestIntervalsUnchanged:
    @given(values=samples, level=levels, n_boot=n_boots, seed=seeds)
    def test_median_ci_bit_identical_to_pre_change(self, values, level, n_boot, seed):
        got = bootstrap_median_ci(values, level=level, n_boot=n_boot, seed=seed)
        assert bits(got) == bits(reference_median_ci(values, level, n_boot, seed))

    @given(base=samples, other=samples, level=levels, n_boot=n_boots, seed=seeds)
    def test_delta_ci_bit_identical_to_pre_change(self, base, other, level, n_boot, seed):
        got = bootstrap_delta_ci(base, other, level=level, n_boot=n_boot, seed=seed)
        assert bits(got) == bits(reference_delta_ci(base, other, level, n_boot, seed))


class TestZeroSpread:
    """A sample with no spread has an exact interval and costs no draw."""

    values = st.floats(min_value=-1e300, max_value=1e300)  # -0.0 included

    @given(v=values, n=st.integers(2, 40), level=levels, n_boot=n_boots, seed=seeds)
    def test_median_ci_is_the_value_for_any_seed_and_n_boot(
        self, v, n, level, n_boot, seed
    ):
        with mock.patch.object(stats, "_resampled_medians", side_effect=AssertionError):
            got = bootstrap_median_ci([v] * n, level=level, n_boot=n_boot, seed=seed)
        assert bits(got) == bits((v + 0.0, v + 0.0))

    @given(a=values, b=values, n=st.integers(2, 9), m=st.integers(2, 9), seed=seeds)
    def test_delta_ci_is_the_difference(self, a, b, n, m, seed):
        with mock.patch.object(stats, "_resampled_medians", side_effect=AssertionError):
            got = bootstrap_delta_ci([a] * n, [b] * m, n_boot=25, seed=seed)
        delta = (b + 0.0) - (a + 0.0)
        assert bits(got) == bits((delta, delta))

    def test_one_varying_side_still_draws(self):
        with mock.patch.object(stats, "_resampled_medians", side_effect=AssertionError):
            with pytest.raises(AssertionError):
                bootstrap_delta_ci([2.0, 2.0], [1.0, 3.0])


# -- standard-library summaries and undrawn intervals --------------------------
#
# numpy is the judge again: the references below are the numpy bodies
# these functions had before they moved to Python floats, and every field
# must keep its bits, the sign of a zero included.  Samples run to 600
# values, past the 128 where numpy's pairwise sum splits in halves.


def reference_summarize(values) -> Summary:
    arr = np.asarray(list(values), dtype=float)
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
    )


def reference_zero_spread(values):
    arr = np.asarray(list(values), dtype=float)
    low = float(arr.min())
    if low == float(arr.max()) and math.isfinite(4.0 * low):
        return low + 0.0
    return None


def reference_undrawn_median_ci(values):
    """The interval ``bootstrap_median_ci`` returned without drawing, or
    ``None`` where it drew."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    value = reference_zero_spread(arr)
    return None if value is None else (value, value)


def reference_undrawn_delta_ci(base, other):
    a = np.asarray(list(base), dtype=float)
    b = np.asarray(list(other), dtype=float)
    if a.size == 1 and b.size == 1:
        delta = float(b[0]) - float(a[0])
        return (delta, delta)
    value_a, value_b = reference_zero_spread(a), reference_zero_spread(b)
    if value_a is not None and value_b is not None:
        return (value_b - value_a, value_b - value_a)
    return None


def summary_bits(summary: Summary) -> tuple:
    fields = (summary.mean, summary.std, summary.minimum, summary.maximum, summary.median)
    return summary.n, bits(fields)


#: Subnormals, values whose sum overflows, and the awkward set above.
kernel_values = st.one_of(
    awkward,
    any_float,
    st.sampled_from([2.2e-308, -4.9e-324, 1.7e308, 8.9e307]),
)
#: A pool drawn from up to 600 times: long samples, cheap to generate,
#: with both zeros mixed whenever the pool holds both.
long_samples = st.builds(
    lambda pool, n, rnd: [rnd.choice(pool) for _ in range(n)],
    st.lists(kernel_values, min_size=1, max_size=12),
    st.integers(1, 600),
    st.randoms(use_true_random=False),
)
#: Long samples of distinct values, where the order of additions shows.
long_uniform = st.builds(
    lambda n, rnd: [rnd.uniform(-1e3, 1e3) for _ in range(n)],
    st.integers(1, 600),
    st.randoms(use_true_random=False),
)
kernel_samples = st.one_of(samples, long_samples, long_uniform)


class Drew(Exception):
    """Raised in place of importing numpy: the function tried to draw."""


def tied_zero_extreme(values) -> bool:
    """No NaN, both zeros present, and a zero is the minimum or maximum:
    the one sample whose extremes numpy decides by SIMD lane."""
    values = [float(v) for v in values]
    if any(math.isnan(v) for v in values) or not mixes_zero_signs(values):
        return False
    return min(values) == 0.0 or max(values) == 0.0


@quiet
class TestSummariesAgainstNumpy:
    @given(values=kernel_samples)
    def test_summarize_bit_identical_to_numpy(self, values):
        assert summary_bits(summarize(values)) == summary_bits(reference_summarize(values))

    @given(values=kernel_samples)
    def test_only_a_tied_zero_extreme_asks_numpy(self, values):
        judge = mock.Mock(wraps=stats._numpy)
        with mock.patch.object(stats, "_numpy", judge):
            summarize(values)
        assert judge.called == tied_zero_extreme(values)

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 17, 33, 64, 129, 257])
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_alternating_zeros_at_every_width(self, n, first):
        values = [first if i % 2 == 0 else -first for i in range(n)] + [3.0]
        for sample in (values, [-v for v in values], values[::-1]):
            assert summary_bits(summarize(sample)) == summary_bits(reference_summarize(sample))

    @given(values=kernel_samples)
    def test_zero_spread_bit_identical_to_numpy(self, values):
        got = stats._zero_spread([float(v) for v in values])
        want = reference_zero_spread(values)
        assert (got is None) == (want is None)
        if got is not None:
            assert bits(got) == bits(want)

    def test_zero_spread_sees_a_nan_wherever_it_sits(self):
        for values in ([math.nan, 1.0, 1.0], [1.0, math.nan, 1.0], [1.0, 1.0, math.nan]):
            assert stats._zero_spread(values) is None

    @given(values=kernel_samples, level=levels, n_boot=n_boots, seed=seeds)
    def test_median_ci_undrawn_bit_identical_and_numpy_only_to_draw(
        self, values, level, n_boot, seed
    ):
        want = reference_undrawn_median_ci(values)
        with mock.patch.object(stats, "_numpy", side_effect=Drew):
            if want is None:
                with pytest.raises(Drew):
                    bootstrap_median_ci(values, level=level, n_boot=n_boot, seed=seed)
            else:
                got = bootstrap_median_ci(values, level=level, n_boot=n_boot, seed=seed)
                assert bits(got) == bits(want)

    @given(base=kernel_samples, other=kernel_samples, seed=seeds)
    def test_delta_ci_undrawn_bit_identical_and_numpy_only_to_draw(self, base, other, seed):
        want = reference_undrawn_delta_ci(base, other)
        with mock.patch.object(stats, "_numpy", side_effect=Drew):
            if want is None:
                with pytest.raises(Drew):
                    bootstrap_delta_ci(base, other, n_boot=25, seed=seed)
            else:
                assert bits(bootstrap_delta_ci(base, other, n_boot=25, seed=seed)) == bits(want)


# -- standard-library percentiles (PR 17) --------------------------------------
#
# np.percentile is the judge: the pure-Python sort + two-sided lerp must
# give its bits, so a report's quartiles and an open-loop run's sojourn
# tail did not move when numpy left the simulator's import graph.


def mixes_zero_signs(values) -> bool:
    """A sort and a partition may order 0.0 and -0.0 differently, and the
    lerp keeps the sign of a zero it lands on: the one input class where
    "bit for bit" is not defined by the values alone."""
    signs = {math.copysign(1.0, v) for v in values if v == 0.0}
    return len(signs) == 2


prob_sets = st.one_of(
    st.sampled_from(
        [(25.0, 50.0, 75.0), (50.0, 95.0, 99.0), (0.0, 100.0), (2.5, 97.5)]
    ),
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=5),
)


@quiet
class TestPercentilesAgainstNumpy:
    @given(values=samples, probs=prob_sets)
    def test_percentiles_bit_identical_to_np_percentile(self, values, probs):
        assume(not mixes_zero_signs(values))
        want = np.percentile(np.asarray(values, dtype=float), list(probs))
        assert bits(percentiles(values, probs)) == bits(want)

    @given(values=st.lists(finite_floats, min_size=1, max_size=60), probs=prob_sets)
    def test_finite_samples_of_any_size(self, values, probs):
        assume(not mixes_zero_signs(values))
        want = np.percentile(np.asarray(values, dtype=float), list(probs))
        assert bits(percentiles(values, probs)) == bits(want)

    @given(values=samples)
    def test_quartiles_bit_identical_to_np_percentile(self, values):
        assume(not mixes_zero_signs(values))
        want = np.percentile(np.asarray(values, dtype=float), [25.0, 50.0, 75.0])
        assert bits(quartiles(values)) == bits(want)

    def test_mixed_zero_signs_are_still_zero(self):
        assert percentiles([0.0, -0.0, 0.0, -0.0], (0.0, 30.0, 70.0, 100.0)) == (0.0,) * 4

    def test_accepts_ints_and_iterators(self):
        assert percentiles(iter([1, 2, 3, 4]), (50.0,)) == (2.5,)
        assert quartiles(range(5)) == (1.0, 2.0, 3.0)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="percentiles of an empty"):
            percentiles([])
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentiles([1.0], (101.0,))
