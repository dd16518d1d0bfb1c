"""The scalar reference analysis: the differential-test oracle.

One comparison and one candidate at a time, in plain Python, exactly
as the analysis core computed before it moved onto the measurement
tensor.  The vectorized paths in :mod:`repro.core` must agree with it
exactly (``==``, not approximately) on every decision, portfolio step
and strategy; ``tests/test_analysis_differential.py`` holds them to
that.

* :func:`t_ppf` — the t quantile by bisection over a continued-fraction
  CDF, and :func:`welch_interval` / :func:`significant_difference`, the
  interval-side significance filter built on it;
* :class:`OracleAnalysis` — Algorithm 1 with the per-pair memoised
  ``_normalised_ratio`` loop;
* :func:`greedy_portfolio` / :func:`portfolio_coverage` /
  :func:`build_portfolios` — the set cover over per-test
  config-key → median dicts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.algorithm1 import Analysis
from repro.core.portfolio import PortfolioCurve, PortfolioSet, PortfolioStep
from repro.core.strategies import STRATEGY_DIMS, build_strategies
from repro.study.dataset import PerfDataset, TestCase
from repro.compiler.options import OptConfig, configs_with, disable_opt
from repro.util import geomean

_MAX_ITER = 300
_EPS = 3e-14


# -- Student's t, scalar -------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


@lru_cache(maxsize=65536)
def t_ppf(q: float, df: float) -> float:
    """Quantile (inverse CDF) of Student's t, by bisection."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if q == 0.5:
        return 0.0
    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


# -- the interval-side significance filter -------------------------------------


def welch_interval(a: Sequence[float], b: Sequence[float], confidence: float = 0.95):
    """Welch CI for mean(a) - mean(b); returns (low, high)."""
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("Welch interval needs at least two samples per side")
    va = max(float(a.var(ddof=1)), 1e-24)
    vb = max(float(b.var(ddof=1)), 1e-24)
    na, nb = a.size, b.size
    se_sq = va / na + vb / nb
    df = se_sq**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    t_crit = t_ppf(0.5 + confidence / 2.0, max(df, 1.0))
    diff = float(a.mean() - b.mean())
    half = t_crit * math.sqrt(se_sq)
    return diff - half, diff + half


def significant_difference(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> bool:
    """Whether the Welch interval of two samples excludes zero."""
    a, b = list(a), list(b)
    if len(a) < 2 or len(b) < 2:
        obs.count("analysis.pairs.single_sample")
        return False
    obs.count("analysis.welch_intervals")
    low, high = welch_interval(a, b, confidence)
    return low > 0.0 or high < 0.0


# -- Algorithm 1, one comparison at a time -------------------------------------


class OracleAnalysis(Analysis):
    """:class:`~repro.core.algorithm1.Analysis` with the scalar filter.

    Only the comparison lists differ; the MWU vote, the fg/fg8
    arbitration and the partitioning are inherited, so a differential
    test isolates the filter and the gather.
    """

    def __init__(self, dataset: PerfDataset, **kwargs) -> None:
        super().__init__(dataset, **kwargs)
        self._sig_cache: Dict[Tuple[TestCase, str, str], Optional[float]] = {}

    def _normalised_ratio(
        self, test: TestCase, enabled_cfg: OptConfig, disabled_cfg: OptConfig
    ) -> Optional[float]:
        key = (test, enabled_cfg.key(), disabled_cfg.key())
        if key not in self._sig_cache:
            times_on = self.dataset.times(test, enabled_cfg)
            times_off = self.dataset.times(test, disabled_cfg)
            if significant_difference(times_on, times_off, self.confidence):
                ratio = float(np.median(times_on)) / float(np.median(times_off))
                self._rec().count("analysis.filter.significant")
            else:
                ratio = None
                self._rec().count("analysis.filter.insignificant")
            self._sig_cache[key] = ratio
        return self._sig_cache[key]

    def comparison_lists(self, tests, opt):
        a: List[float] = []
        for cfg in configs_with(opt):
            mirror = disable_opt(cfg, opt)
            for test in tests:
                if not (self.dataset.has(test, cfg) and self.dataset.has(test, mirror)):
                    self._rec().count("analysis.pairs.missing")
                    continue
                ratio = self._normalised_ratio(test, cfg, mirror)
                if ratio is not None:
                    a.append(ratio)
        return a, [1.0] * len(a)


# -- portfolios over per-test dicts --------------------------------------------


def _partition_medians(
    dataset: PerfDataset, tests: Sequence[TestCase]
) -> List[Dict[str, float]]:
    """Per test: config key -> median, for every measured cell."""
    rows: List[Dict[str, float]] = []
    for test in sorted(tests):
        medians: Dict[str, float] = {}
        for config in dataset.configs:
            times = dataset.times_or_none(test, config)
            if times is not None:
                ordered = sorted(times)
                n = len(ordered)
                mid = n // 2
                medians[config.key()] = (
                    ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
                )
        if medians:
            rows.append(medians)
    return rows


def _coverage_of(rows: Sequence[Dict[str, float]], configs: Sequence[str]) -> float:
    """Geomean fraction-of-oracle of a configuration set over ``rows``."""
    chosen = set(configs)
    ratios: List[float] = []
    for medians in rows:
        oracle = min(medians.values())
        deployed = [m for key, m in medians.items() if key in chosen]
        best = min(deployed) if deployed else max(medians.values())
        ratios.append(oracle / best)
    return geomean(ratios)


def portfolio_coverage(dataset, tests, configs) -> float:
    return _coverage_of(_partition_medians(dataset, tests), configs)


def greedy_portfolio(
    dataset: PerfDataset,
    tests: Sequence[TestCase],
    *,
    level: str,
    key: Tuple[str, ...],
    seed: Optional[str] = None,
    k_max: Optional[int] = None,
) -> PortfolioCurve:
    """The greedy set-cover curve, one candidate at a time."""
    rows = _partition_medians(dataset, tests)
    curve = PortfolioCurve(level=level, key=key, n_tests=len(rows))
    if not rows:
        return curve
    candidates = sorted({key for medians in rows for key in medians})
    chosen: List[str] = []
    coverage = 0.0
    if seed is not None:
        chosen.append(seed)
        coverage = _coverage_of(rows, chosen)
        curve.steps.append(PortfolioStep(config=seed, coverage=coverage, gain=coverage))
    while coverage < 1.0 and (k_max is None or len(chosen) < k_max):
        best_key: Optional[str] = None
        best_cov = coverage
        for candidate in candidates:
            if candidate in chosen:
                continue
            cov = _coverage_of(rows, chosen + [candidate])
            if cov > best_cov:
                best_key, best_cov = candidate, cov
        if best_key is None:
            break
        chosen.append(best_key)
        curve.steps.append(
            PortfolioStep(config=best_key, coverage=best_cov, gain=best_cov - coverage)
        )
        coverage = best_cov
    return curve


def build_portfolios(dataset: PerfDataset, k_max: Optional[int] = None) -> PortfolioSet:
    """Every lattice partition's curve, seeded by the oracle analysis."""
    analysis = OracleAnalysis(dataset)
    strategies = build_strategies(dataset, analysis)
    levels = {}
    for level, dims in STRATEGY_DIMS.items():
        partitions = analysis.partitions(dims)
        cells = {}
        for key in sorted(partitions):
            seed = strategies[level].assignment.get(key)
            cells[key] = greedy_portfolio(
                dataset,
                partitions[key],
                level=level,
                key=key,
                seed=seed.key() if seed is not None else None,
                k_max=k_max,
            )
        levels[level] = cells
    return PortfolioSet(levels, coverage=analysis.coverage)
