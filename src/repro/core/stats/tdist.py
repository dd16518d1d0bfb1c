"""Student's t distribution, from scratch, vectorized over numpy arrays.

Needed by the 95 % confidence-interval significance filter that
Algorithm 1 applies to each individual timing comparison (line 14 of
the paper's listing) before the rank analysis.  The filter decides on
the CDF side — a comparison is significant iff its two-sided tail
``I_x(df/2, 1/2)`` (``x = df / (df + t^2)``) is below ``1 - confidence``
— so only the regularised incomplete beta function is needed, never a
quantile.  It is evaluated by the Numerical Recipes continued fraction,
run element-wise over whole arrays until every element has converged;
validated against SciPy in the tests.

SciPy is deliberately not imported here: ``import scipy.special`` adds
about 19 MB of proportional set size and a quarter second of start-up
to a process whose whole ``import repro`` is about 35 MB and 0.4 s
(see ``docs/analysis.md``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["betainc_regularized", "t_cdf", "t_tail"]

_MAX_ITER = 300
_EPS = 3e-14
_TINY = 1e-300
_lgamma_ufunc = np.frompyfunc(math.lgamma, 1, 1)


def _lgamma(v: np.ndarray) -> np.ndarray:
    return np.asarray(_lgamma_ufunc(v), dtype=np.float64)


def _clamp(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _betacf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta function, per element.

    Each element stops updating once its own term converges, so the
    result does not depend on what else shares the array.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _clamp(1.0 - qab * x / qap)
    h = d.copy()
    live = np.ones(x.shape, dtype=bool)
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _clamp(1.0 + aa * d)
        c = _clamp(1.0 + aa / c)
        h = np.where(live, h * (d * c), h)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _clamp(1.0 + aa * d)
        c = _clamp(1.0 + aa / c)
        delta = d * c
        h = np.where(live, h * delta, h)
        live &= np.abs(delta - 1.0) >= _EPS
        if not live.any():
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a, b, x):
    """Regularised incomplete beta function ``I_x(a, b)``, element-wise.

    Accepts scalars or broadcastable arrays; returns a float for
    scalar input.  ``x`` must lie in ``[0, 1]``.
    """
    a, b, x = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64),
        np.asarray(b, dtype=np.float64),
        np.asarray(x, dtype=np.float64),
    )
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("x must lie in [0, 1]")
    inner = (x > 0.0) & (x < 1.0)
    # The fraction converges fast below the mode; above it, use the
    # symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
    flip = x >= (a + 1.0) / (a + b + 2.0)
    xi = np.where(inner, x, 0.5)
    ln_front = (
        _lgamma(a + b)
        - _lgamma(a)
        - _lgamma(b)
        + a * np.log(xi)
        + b * np.log1p(-xi)
    )
    front = np.exp(ln_front)
    pa, pb = np.where(flip, b, a), np.where(flip, a, b)
    frac = front * _betacf(pa, pb, np.where(flip, 1.0 - xi, xi)) / pa
    out = np.where(inner, np.where(flip, 1.0 - frac, frac), x)
    return float(out) if out.ndim == 0 else out


def t_tail(t_sq, df):
    """Two-sided tail ``P(|T| >= |t|)`` of Student's t, from ``t^2``.

    Equal to ``I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``;
    element-wise over arrays.
    """
    df = np.asarray(df, dtype=np.float64)
    x = df / (df + np.asarray(t_sq, dtype=np.float64))
    return betainc_regularized(df / 2.0, 0.5, x)


def t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    tail = 0.5 * t_tail(t * t, df)
    return 1.0 - tail if t > 0 else tail
