"""Common-language effect size (paper Table IX, the "CL" column).

For the per-chip optimisation decisions the paper reports, alongside
each enable/disable recommendation, the probability that a randomly
chosen (program, input) pair shows a speedup under the optimisation —
the common-language effect size of the normalised-runtime sample
against the baseline sample.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["cl_effect_size", "cl_from_u"]


def cl_effect_size(a: Sequence[float], b: Sequence[float]) -> float:
    """P(a < b) + 0.5 · P(a = b) over all cross pairs.

    In Algorithm 1's usage ``a`` holds normalised runtimes (enabled /
    disabled) and ``b`` holds the all-ones baseline, so the value is
    the probability a random comparison shows a speedup.
    """
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return 0.5
    # Count cross pairs by binary search over the sorted b: exact
    # integer counts without the a × b comparison matrix.
    b = np.sort(b)
    below = np.searchsorted(b, a, side="left")
    above = np.searchsorted(b, a, side="right")
    less = int((b.size - above).sum())
    equal = int((above - below).sum())
    return float((less + 0.5 * equal) / (a.size * b.size))


def cl_from_u(u1: float, n1: int, n2: int) -> float:
    """Effect size recovered from a U statistic: ``1 - U1/(n1·n2)``.

    ``U1`` counts pairs where the first sample exceeds the second, so
    the probability of the first being *smaller* (a speedup, for
    runtime ratios) is its complement.
    """
    if n1 == 0 or n2 == 0:
        return 0.5
    return 1.0 - u1 / (n1 * n2)
