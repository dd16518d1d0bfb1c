"""Rank utilities for the non-parametric tests."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["rankdata", "tie_groups"]


def _tie_runs(sorted_vals: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values, plus the length."""
    starts = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    return np.concatenate(([0], starts, [sorted_vals.size]))


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Ranks (1-based) with ties assigned their average rank.

    Matches the standard mid-rank convention used by the Mann-Whitney
    U test.
    """
    values = np.asarray(values, dtype=np.float64)
    ranks = np.empty(values.size, dtype=np.float64)
    if not values.size:
        return ranks
    order = np.argsort(values, kind="stable")
    bounds = _tie_runs(values[order])
    # Positions i..j (0-based) of a run share the average of ranks
    # i+1..j+1.
    first, last = bounds[:-1], bounds[1:] - 1
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def tie_groups(values: Sequence[float]) -> Tuple[int, ...]:
    """Sizes of groups of tied values (size >= 2 only)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if not values.size:
        return ()
    sizes = np.diff(_tie_runs(values))
    return tuple(int(n) for n in sizes[sizes > 1])
