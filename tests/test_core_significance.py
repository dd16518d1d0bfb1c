"""Tests for the 95% CI significance filter and outcome vocabulary.

``welch_interval`` is the interval-side oracle the CDF-side filter
replaced; its tests pin the oracle, and the filter is held to it in
``test_analysis_differential.py``.
"""

import numpy as np
import pytest
import scipy.stats

from repro.core import classify_outcome, significant_difference, welch_tail

from .oracle_scalar import welch_interval


class TestWelchInterval:
    def test_matches_scipy_ttest_boundary(self):
        """Our interval excludes 0 exactly when Welch's t-test p < alpha."""
        cases = [
            ([10.0, 10.5, 9.8], [12.0, 12.2, 11.9]),
            ([10.0, 10.5, 9.8], [10.1, 10.4, 10.0]),
            ([5.0, 5.1, 5.2, 4.9], [5.4, 5.6, 5.5]),
        ]
        for a, b in cases:
            lo, hi = welch_interval(a, b, confidence=0.95)
            excluded = lo > 0 or hi < 0
            p = scipy.stats.ttest_ind(a, b, equal_var=False).pvalue
            assert excluded == (p < 0.05)

    def test_interval_contains_mean_difference(self):
        a, b = [10.0, 11.0, 12.0], [8.0, 9.0, 10.0]
        lo, hi = welch_interval(a, b)
        diff = sum(a) / 3 - sum(b) / 3
        assert lo < diff < hi

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            welch_interval([1.0], [2.0, 3.0])

    def test_zero_variance_handled(self):
        lo, hi = welch_interval([5.0, 5.0, 5.0], [7.0, 7.0, 7.0])
        assert hi < 0  # clearly different despite degenerate variance

    def test_wider_at_higher_confidence(self):
        a, b = [10.0, 10.6, 9.7], [10.2, 10.9, 10.1]
        lo95, hi95 = welch_interval(a, b, 0.95)
        lo99, hi99 = welch_interval(a, b, 0.99)
        assert lo99 < lo95 and hi99 > hi95


class TestWelchTail:
    def test_matches_scipy_welch_ttest(self, rng):
        a = rng.normal(10.0, 1.0, size=(40, 3))
        b = rng.normal(10.5, 1.5, size=(40, 4))
        expected = scipy.stats.ttest_ind(a, b, axis=1, equal_var=False).pvalue
        np.testing.assert_allclose(welch_tail(a, b), expected, rtol=1e-9)

    def test_rows_are_independent(self, rng):
        a = rng.normal(10.0, 1.0, size=(12, 3))
        b = rng.normal(11.0, 1.0, size=(12, 3))
        rows = [welch_tail(a[i : i + 1], b[i : i + 1])[0] for i in range(12)]
        np.testing.assert_allclose(welch_tail(a, b), rows, rtol=1e-14)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            welch_tail(np.ones((2, 1)), np.ones((2, 3)))

    def test_zero_variance_handled(self):
        p = welch_tail(np.full((1, 3), 5.0), np.full((1, 3), 7.0))
        assert p[0] < 1e-12  # clearly different despite degenerate variance
        same = welch_tail(np.full((1, 3), 5.0), np.full((1, 3), 5.0))
        assert same[0] == 1.0


class TestSignificance:
    def test_identical_not_significant(self):
        assert not significant_difference([5.0, 5.1, 4.9], [5.0, 5.1, 4.9])

    def test_clear_difference_significant(self):
        assert significant_difference([5.0, 5.1, 4.9], [50.0, 51.0, 49.0])

    def test_noise_masks_small_difference(self):
        a = [100.0, 120.0, 80.0]
        b = [105.0, 125.0, 85.0]
        assert not significant_difference(a, b)

    def test_single_repetition_is_never_significant(self):
        # No variance information → no significance evidence.  A
        # degraded 1-repetition dataset must classify as no-change,
        # not crash the analysis (welch_interval itself still raises).
        assert not significant_difference([5.0], [50.0, 51.0, 49.0])
        assert not significant_difference([5.0, 5.1, 4.9], [50.0])
        assert classify_outcome([10.0], [5.0]) == "no-change"
        with pytest.raises(ValueError):
            welch_interval([5.0], [50.0, 51.0, 49.0])


class TestClassifyOutcome:
    def test_speedup(self):
        assert classify_outcome([10.0, 10.1, 9.9], [5.0, 5.1, 4.9]) == "speedup"

    def test_slowdown(self):
        assert classify_outcome([5.0, 5.1, 4.9], [10.0, 10.1, 9.9]) == "slowdown"

    def test_no_change(self):
        assert (
            classify_outcome([5.0, 5.1, 4.9], [5.05, 5.12, 4.93]) == "no-change"
        )

    def test_paper_definition_requires_significance(self):
        """A faster median alone is not a speedup without significance."""
        base = [100.0, 130.0, 70.0]
        times = [95.0, 125.0, 65.0]
        assert classify_outcome(base, times) == "no-change"
