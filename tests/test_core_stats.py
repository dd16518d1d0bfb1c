"""Tests for the from-scratch statistics, validated against SciPy."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    cl_effect_size,
    cl_from_u,
    mann_whitney_u,
    median,
    rankdata,
    speedup_ratio,
    t_cdf,
    t_tail,
    tie_groups,
)
from repro.core.stats.tdist import betainc_regularized
from repro.errors import InsufficientDataError

from .oracle_scalar import t_ppf

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRanks:
    def test_simple_ranks(self):
        assert rankdata([30, 10, 20]).tolist() == [3, 1, 2]

    def test_ties_get_average_rank(self):
        assert rankdata([1, 2, 2, 3]).tolist() == [1, 2.5, 2.5, 4]

    def test_all_tied(self):
        assert rankdata([5, 5, 5]).tolist() == [2, 2, 2]

    @given(st.lists(floats, min_size=1, max_size=50))
    def test_matches_scipy(self, values):
        ours = rankdata(values)
        theirs = scipy.stats.rankdata(values)
        assert np.allclose(ours, theirs)

    def test_tie_groups(self):
        assert tie_groups([1, 1, 2, 3, 3, 3]) == (2, 3)
        assert tie_groups([1, 2, 3]) == ()


class TestTDistribution:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100])
    @pytest.mark.parametrize("t", [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0])
    def test_cdf_matches_scipy(self, df, t):
        assert t_cdf(t, df) == pytest.approx(scipy.stats.t.cdf(t, df), abs=1e-9)

    @pytest.mark.parametrize("df", [2, 4, 10, 50])
    @pytest.mark.parametrize("q", [0.025, 0.1, 0.5, 0.9, 0.975])
    def test_ppf_matches_scipy(self, df, q):
        assert t_ppf(q, df) == pytest.approx(
            scipy.stats.t.ppf(q, df), rel=1e-6, abs=1e-7
        )

    def test_ppf_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            t_ppf(0.0, 3)
        with pytest.raises(ValueError):
            t_ppf(1.5, 3)
        with pytest.raises(ValueError):
            t_cdf(0.0, 0)

    @given(
        st.floats(min_value=0.5, max_value=20),
        st.floats(min_value=0.5, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_betainc_matches_scipy(self, a, b, x):
        assert betainc_regularized(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-8
        )

    def test_betainc_vectorized_matches_scipy_elementwise(self, rng):
        a = rng.uniform(0.5, 20.0, size=500)
        b = rng.uniform(0.5, 20.0, size=500)
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=498)])
        got = betainc_regularized(a, b, x)
        assert got.shape == (500,)
        np.testing.assert_allclose(got, scipy.special.betainc(a, b, x), rtol=0, atol=1e-12)

    def test_betainc_rejects_x_outside_unit_interval(self):
        with pytest.raises(ValueError):
            betainc_regularized(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            betainc_regularized([1.0, 1.0], 1.0, [0.5, -0.1])

    @pytest.mark.parametrize("df", [1.0, 2.5, 4.0, 8.0, 40.0])
    def test_two_sided_tail_matches_scipy(self, df):
        t = np.array([0.0, 0.3, 1.0, 2.776, 4.0, 30.0])
        expected = 2.0 * scipy.stats.t.sf(t, df)
        np.testing.assert_allclose(t_tail(t * t, df), expected, rtol=1e-10, atol=1e-15)


class TestMWU:
    def test_matches_scipy_no_ties(self, rng):
        a = rng.normal(0.9, 0.1, size=40)
        b = rng.normal(1.0, 0.1, size=35)
        ours = mann_whitney_u(a, b)
        theirs = scipy.stats.mannwhitneyu(a, b, alternative="two-sided")
        assert ours.u1 == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_matches_scipy_with_ties(self):
        a = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0]
        b = [1.0, 2.0, 2.0, 2.0, 3.0, 5.0, 5.0, 6.0]
        ours = mann_whitney_u(a, b)
        theirs = scipy.stats.mannwhitneyu(a, b, alternative="two-sided")
        assert ours.u1 == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_identical_samples_not_significant(self):
        result = mann_whitney_u([1.0] * 10, [1.0] * 10)
        assert result.p_value == 1.0
        assert not result.reject_null()

    def test_clearly_shifted_samples_significant(self):
        result = mann_whitney_u([0.5] * 10 + [0.6] * 10, [1.0] * 20)
        assert result.reject_null(0.05)

    def test_u_statistics_sum_invariant(self, rng):
        a = rng.random(15)
        b = rng.random(12)
        res = mann_whitney_u(a, b)
        assert res.u1 + res.u2 == pytest.approx(15 * 12)

    def test_insufficient_data_raises(self):
        with pytest.raises(InsufficientDataError):
            mann_whitney_u([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            mann_whitney_u([], [])

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10), min_size=4, max_size=30),
        st.lists(st.floats(min_value=0.1, max_value=10), min_size=4, max_size=30),
    )
    @settings(max_examples=40)
    def test_p_value_in_range_and_symmetric(self, a, b):
        r_ab = mann_whitney_u(a, b)
        r_ba = mann_whitney_u(b, a)
        assert 0.0 <= r_ab.p_value <= 1.0
        assert r_ab.p_value == pytest.approx(r_ba.p_value, abs=1e-12)
        assert r_ab.u1 == pytest.approx(r_ba.u2)


class TestEffectSize:
    def test_all_smaller(self):
        assert cl_effect_size([0.5, 0.6], [1.0, 1.0]) == 1.0

    def test_all_larger(self):
        assert cl_effect_size([1.5, 1.6], [1.0, 1.0]) == 0.0

    def test_ties_count_half(self):
        assert cl_effect_size([1.0], [1.0]) == 0.5

    def test_empty_is_half(self):
        assert cl_effect_size([], [1.0]) == 0.5

    def test_consistent_with_u(self, rng):
        a = rng.random(20).tolist()
        b = rng.random(25).tolist()
        res = mann_whitney_u(a, b)
        assert cl_from_u(res.u1, res.n1, res.n2) == pytest.approx(
            cl_effect_size(a, b)
        )


class TestSummary:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        with pytest.raises(ValueError):
            median([])

    def test_speedup_ratio(self):
        assert speedup_ratio([10.0, 10.0], [5.0, 5.0]) == 2.0
