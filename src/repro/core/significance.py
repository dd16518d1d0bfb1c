"""The per-comparison 95 % CI significance filter (Algorithm 1, line 14).

Before a runtime ratio enters the rank analysis, the paper requires
the difference between the two timing samples to be statistically
significant at 95 % confidence.  With the study's three repetitions
per measurement this is a Welch confidence interval on the difference
of means: the comparison is significant when the interval excludes
zero, i.e. when the two-sided Welch p-value is below ``1 - confidence``
(:func:`welch_tail`, vectorized over many comparisons at once).

The same filter defines the paper's vocabulary: a configuration gives
a test a *speedup* (or *slowdown*) only when its timings differ
significantly from the baseline's and the median moved in the
corresponding direction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from .stats.summary import median
from .stats.tdist import t_tail

__all__ = ["significant_difference", "classify_outcome", "welch_tail"]


def welch_tail(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-sided Welch p-value of ``mean(a) - mean(b)``, row by row.

    ``a`` and ``b`` are ``k × n_a`` and ``k × n_b`` arrays (at least two
    columns each): row ``i`` compares ``a[i]`` against ``b[i]``.  The
    comparison is significant at confidence ``c`` iff the value is
    below ``1 - c`` — exactly when the Welch interval excludes zero,
    decided on the CDF side so no t quantile is needed.

    Degenerate zero-variance samples get a tiny floor variance so the
    statistic stays well-defined (timing data is never exactly
    constant, but simulated data can be).
    """
    na, nb = a.shape[1], b.shape[1]
    if na < 2 or nb < 2:
        raise ValueError("Welch test needs at least two samples per side")
    va = np.maximum(a.var(axis=1, ddof=1), 1e-24) / na
    vb = np.maximum(b.var(axis=1, ddof=1), 1e-24) / nb
    se_sq = va + vb
    df = np.maximum(se_sq**2 / (va**2 / (na - 1) + vb**2 / (nb - 1)), 1.0)
    diff = a.mean(axis=1) - b.mean(axis=1)
    return t_tail(diff * diff / se_sq, df)


def significant_difference(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> bool:
    """Whether two timing samples differ at the given confidence.

    A side with fewer than two repetitions carries no variance
    information, so no confidence interval — and hence no significant
    difference — can be established: single-repetition (degraded)
    data classifies as no-change instead of crashing the analysis.
    """
    a, b = list(a), list(b)
    if len(a) < 2 or len(b) < 2:
        obs.count("analysis.pairs.single_sample")
        return False
    obs.count("analysis.welch_intervals")
    tail = welch_tail(np.array([a], dtype=np.float64), np.array([b], dtype=np.float64))
    return bool(tail[0] < 1.0 - confidence)


def classify_outcome(
    baseline_times: Sequence[float],
    times: Sequence[float],
    confidence: float = 0.95,
) -> str:
    """The paper's outcome vocabulary: speedup / slowdown / no-change.

    A significant difference with a lower median is a ``"speedup"``,
    with a higher median a ``"slowdown"``; anything else is
    ``"no-change"``.
    """
    if not significant_difference(times, baseline_times, confidence):
        return "no-change"
    return "speedup" if median(times) < median(baseline_times) else "slowdown"
