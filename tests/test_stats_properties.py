"""Property-based hardening of the from-scratch statistics kernel.

Hypothesis drives the paper-critical invariants that example-based
tests cannot sweep:

* the Mann-Whitney U test is *symmetric* (swapping the samples swaps
  the U statistics and negates z but leaves p unchanged) and
  *magnitude-agnostic* (invariant under rank-preserving transforms —
  the property the paper's whole methodology rests on);
* :func:`~repro.core.stats.ranks.rankdata` obeys the mid-rank
  contract: ranks sum to ``n(n+1)/2``, tied values share a rank,
  permutation only permutes ranks;
* the from-scratch t distribution matches closed forms (df 1, 2, 3)
  and a slow numerical-integration reference (df >= 5), and the
  oracle's bisecting ``t_ppf`` round-trips through ``t_cdf``;
* the oracle's Welch interval is antisymmetric under sample swap
  (exactly, in IEEE arithmetic) and widens with confidence;
* the shipped CDF-side filter decides as the interval does, ignores
  which sample comes first, and is monotone in the confidence level
  (significant at 99 % implies significant at 95 %).

Integer-valued floats keep order and tie structure exact under the
affine transforms, so the invariance assertions can use equality
rather than tolerances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.significance import significant_difference
from repro.core.stats.mwu import mann_whitney_u
from repro.core.stats.ranks import rankdata, tie_groups
from repro.core.stats.tdist import t_cdf

from . import oracle_scalar
from .oracle_scalar import t_ppf, welch_interval

# Small integer-valued samples: ties are common (the interesting case)
# and affine transforms with integer coefficients stay exact.
sample = st.lists(
    st.integers(min_value=-50, max_value=50).map(float),
    min_size=3,
    max_size=25,
)


# -- Mann-Whitney U ----------------------------------------------------------


@given(sample, sample)
def test_mwu_symmetry(a, b):
    fwd = mann_whitney_u(a, b)
    rev = mann_whitney_u(b, a)
    assert fwd.u1 == rev.u2 and fwd.u2 == rev.u1
    assert fwd.u == rev.u
    assert fwd.p_value == rev.p_value
    assert fwd.z == -rev.z or (fwd.z == 0.0 and rev.z == 0.0)


@given(
    sample,
    sample,
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=-100, max_value=100),
)
def test_mwu_invariant_under_increasing_affine_transform(a, b, scale, shift):
    """The rank-based test must ignore magnitudes entirely.

    An increasing affine map preserves order and ties, so U and p are
    *identical* — this is the paper's magnitude-agnosticism, the reason
    a 20x-swing chip gets the same vote as a 1.05x-swing chip.
    """
    base = mann_whitney_u(a, b)
    ta = [scale * x + shift for x in a]
    tb = [scale * x + shift for x in b]
    transformed = mann_whitney_u(ta, tb)
    assert transformed.u1 == base.u1
    assert transformed.u2 == base.u2
    assert transformed.p_value == base.p_value


@given(sample, sample)
def test_mwu_u_statistics_partition_the_pairs(a, b):
    result = mann_whitney_u(a, b)
    assert result.u1 + result.u2 == len(a) * len(b)
    assert 0.0 <= result.u1 <= len(a) * len(b)
    assert 0.0 <= result.p_value <= 1.0


@given(sample)
def test_mwu_identical_samples_never_reject(a):
    result = mann_whitney_u(a, a)
    assert result.p_value == 1.0
    assert not result.reject_null()


# -- rank utilities ----------------------------------------------------------


@given(sample)
def test_rankdata_midrank_contract(values):
    ranks = rankdata(values)
    n = len(values)
    # Mid-ranks always sum to the sum 1 + 2 + ... + n.
    assert math.isclose(float(ranks.sum()), n * (n + 1) / 2.0)
    assert float(ranks.min()) >= 1.0 and float(ranks.max()) <= float(n)
    # Equal values share a rank; unequal values order by value.
    for i in range(n):
        for j in range(n):
            if values[i] == values[j]:
                assert ranks[i] == ranks[j]
            elif values[i] < values[j]:
                assert ranks[i] < ranks[j]


@given(sample, st.randoms(use_true_random=False))
def test_rankdata_permutation_equivariance(values, rnd):
    perm = list(range(len(values)))
    rnd.shuffle(perm)
    ranks = rankdata(values)
    permuted_ranks = rankdata([values[i] for i in perm])
    for pos, src in enumerate(perm):
        assert permuted_ranks[pos] == ranks[src]


@given(sample)
def test_tie_groups_account_for_duplicates(values):
    groups = tie_groups(values)
    assert all(g >= 2 for g in groups)
    assert sum(groups) <= len(values)
    # Sum over groups of (g - 1) equals the number of duplicate slots.
    n_duplicates = len(values) - len(set(values))
    assert sum(g - 1 for g in groups) == n_duplicates


# -- Student's t -------------------------------------------------------------


def _t_pdf(t: float, df: float) -> float:
    ln = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1.0) / 2.0 * math.log1p(t * t / df)
    )
    return math.exp(ln)


def _t_cdf_by_integration(t: float, df: float, lo: float = -60.0) -> float:
    """Slow Simpson-rule reference CDF (df >= 5 only: for smaller df
    the heavy tails make the truncated integral meaningfully wrong)."""
    n = 4000  # even
    h = (t - lo) / n
    acc = _t_pdf(lo, df) + _t_pdf(t, df)
    for i in range(1, n):
        acc += (4 if i % 2 else 2) * _t_pdf(lo + i * h, df)
    return acc * h / 3.0


ts = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
dfs = st.floats(min_value=1.0, max_value=50.0, allow_nan=False)


@given(ts)
def test_t_cdf_df1_matches_cauchy_closed_form(t):
    assert t_cdf(t, 1.0) == pytest.approx(
        0.5 + math.atan(t) / math.pi, abs=1e-8
    )


@given(ts)
def test_t_cdf_df2_matches_closed_form(t):
    assert t_cdf(t, 2.0) == pytest.approx(
        0.5 + t / (2.0 * math.sqrt(2.0 + t * t)), abs=1e-8
    )


@given(ts)
def test_t_cdf_df3_matches_closed_form(t):
    x = t / math.sqrt(3.0)
    expected = 0.5 + (x / (1.0 + x * x) + math.atan(x)) / math.pi
    assert t_cdf(t, 3.0) == pytest.approx(expected, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(ts, st.integers(min_value=5, max_value=40))
def test_t_cdf_matches_numerical_integration(t, df):
    assert t_cdf(t, float(df)) == pytest.approx(
        _t_cdf_by_integration(t, float(df)), abs=1e-6
    )


@given(ts, dfs)
def test_t_cdf_symmetry(t, df):
    assert t_cdf(-t, df) == pytest.approx(1.0 - t_cdf(t, df), abs=1e-12)


@settings(deadline=None)
@given(
    st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
    dfs,
)
def test_t_ppf_roundtrip(q, df):
    assert t_cdf(t_ppf(q, df), df) == pytest.approx(q, abs=1e-8)


# -- Welch interval ----------------------------------------------------------


@given(sample, sample)
def test_welch_interval_antisymmetric_under_swap(a, b):
    lo, hi = welch_interval(a, b)
    rlo, rhi = welch_interval(b, a)
    # Exact in IEEE arithmetic: every term either is shared or negates.
    assert lo == -rhi and hi == -rlo
    assert significant_difference(a, b) == significant_difference(b, a)


@given(sample, sample)
def test_welch_interval_contains_mean_difference(a, b):
    lo, hi = welch_interval(a, b)
    diff = float(np.mean(a) - np.mean(b))
    assert lo <= diff <= hi
    assert lo < hi


@given(sample, sample)
def test_welch_interval_widens_with_confidence(a, b):
    lo90, hi90 = welch_interval(a, b, confidence=0.90)
    lo99, hi99 = welch_interval(a, b, confidence=0.99)
    assert lo99 <= lo90 and hi90 <= hi99


@given(sample, st.integers(min_value=1, max_value=1000))
def test_welch_identical_samples_not_significant(a, shift):
    assert not significant_difference(a, a)
    # A large uniform shift of one side must eventually be significant
    # unless the samples have (floored) zero variance.
    shifted = [x + 1000.0 + shift for x in a]
    if len(set(a)) > 1:
        assert significant_difference(shifted, a)


# -- the shipped CDF-side filter ------------------------------------------------


@given(sample, sample)
def test_filter_decision_symmetric_under_swap(a, b):
    assert significant_difference(a, b) == significant_difference(b, a)


@given(sample, sample)
def test_filter_significant_at_99_implies_significant_at_95(a, b):
    if significant_difference(a, b, confidence=0.99):
        assert significant_difference(a, b, confidence=0.95)


@given(sample, sample, st.sampled_from([0.80, 0.90, 0.95, 0.99]))
def test_filter_decides_as_the_interval_oracle(a, b, confidence):
    assert significant_difference(a, b, confidence) == (
        oracle_scalar.significant_difference(a, b, confidence)
    )
