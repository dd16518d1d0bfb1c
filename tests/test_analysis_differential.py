"""Differential suite: the vectorized analysis core against the scalar oracle.

Hypothesis draws small random studies — holed grids, ragged (1-5
repetitions per cell), single-repetition, audited datasets whose bad
cells were quarantined, and small-integer timings full of ties — and
the tensor-backed paths of :mod:`repro.core` must reproduce
:mod:`tests.oracle_scalar` *exactly*:

* every :class:`~repro.core.algorithm1.OptDecision` field at every
  specialisation level (``==``, with NaN matching NaN);
* the analysis counters, level by level (a pair counts once, on its
  first use);
* every :class:`~repro.core.portfolio.PortfolioStep` float;
* the Table V strategies, oracle included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import enumerate_configs
from repro.core import (
    Analysis,
    build_portfolios,
    build_strategies,
    greedy_portfolio,
    portfolio_coverage,
)
from repro.core.strategies import STRATEGY_DIMS
from repro.obs import Recorder
from repro.study.audit import audit_dataset
from repro.study.dataset import PerfDataset, TestCase

from . import oracle_scalar

CHIPS = ("chipA", "chipB")
APPS = ("appX", "appY")
GRAPHS = ("g1", "g2")
#: The baseline plus configurations whose mirrors are mostly present.
CONFIGS = enumerate_configs()[:18]

_COUNTERS = (
    "analysis.mwu.tests",
    "analysis.mwu.insufficient",
    "analysis.filter.significant",
    "analysis.filter.insignificant",
    "analysis.pairs.missing",
)


@st.composite
def studies(draw, reps=st.integers(1, 5), hole_rate=st.sampled_from([0.0, 0.1, 0.3])):
    """A random study; cell values come from a drawn numpy seed.

    Each configuration gets a per-test effect (some large, some within
    noise) so the filter sees both significant and insignificant pairs.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    shape = (
        draw(st.integers(1, 2)),
        draw(st.integers(1, 2)),
        draw(st.integers(1, 2)),
        draw(st.integers(2, len(CONFIGS))),
    )
    holes = draw(hole_rate)
    n_reps = [draw(reps) for _ in range(4)]
    rng = np.random.default_rng(seed)
    ds = PerfDataset()
    for chip in CHIPS[: shape[0]]:
        for app in APPS[: shape[1]]:
            for graph in GRAPHS[: shape[2]]:
                test = TestCase(app=app, graph=graph, chip=chip)
                base = float(rng.uniform(50.0, 500.0))
                for config in CONFIGS[: shape[3]]:
                    if not config.is_baseline and rng.random() < holes:
                        continue
                    effect = float(rng.choice([0.5, 0.9, 0.99, 1.0, 1.01, 1.2, 3.0]))
                    noise = float(rng.choice([0.001, 0.02, 0.1]))
                    n = int(rng.choice(n_reps))
                    times = base * effect * (1.0 + noise * rng.standard_normal(n))
                    ds.add(test, config, (np.abs(times) + 1e-3).tolist())
    return ds


@st.composite
def quarantined_studies(draw):
    """A three-repetition study with non-finite cells, then audited."""
    ds = draw(studies(reps=st.just(3)))
    bad = PerfDataset()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for test, config, times in ds.iter_measurements():
        if not config.is_baseline and rng.random() < 0.15:
            times = (times[0], float(rng.choice([math.inf, math.nan])), times[2])
        bad.add(test, config, times)
    return audit_dataset(bad).dataset


@st.composite
def tied_studies(draw):
    """Small-integer timings: equal medians and equal coverages abound,
    so every tie-break (oracle pick, greedy candidate) is exercised."""
    ds = draw(studies())
    tied = PerfDataset()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for test, config, times in ds.iter_measurements():
        tied.add(test, config, [float(rng.integers(1, 5))] * len(times))
    return tied


any_study = st.one_of(
    studies(),
    studies(reps=st.just(1)),
    studies(reps=st.integers(2, 3), hole_rate=st.just(0.0)),
    quarantined_studies(),
    tied_studies(),
)


def _same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x):
        return math.isnan(y)
    return x == y


def _assert_same_decisions(got, want) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].keys() == want[key].keys()
        for opt, d in want[key].items():
            g = got[key][opt]
            for field in d.__dataclass_fields__:
                assert _same(getattr(g, field), getattr(d, field)), (key, opt, field)


@settings(max_examples=40, deadline=None)
@given(any_study)
def test_decisions_and_counters_match_the_oracle(ds):
    rec_vec, rec_ref = Recorder(clock=lambda: 0.0), Recorder(clock=lambda: 0.0)
    vec = Analysis(ds, recorder=rec_vec)
    ref = oracle_scalar.OracleAnalysis(ds, recorder=rec_ref)
    for dims in STRATEGY_DIMS.values():
        _assert_same_decisions(
            vec.specialise_decisions(dims), ref.specialise_decisions(dims)
        )
    for name in _COUNTERS:
        assert rec_vec.counter_value(name) == rec_ref.counter_value(name), name
    levels = [
        {k: v for k, v in sp.attrs.items() if k != "filter_min_margin"}
        for sp in rec_vec.spans
    ]
    assert levels == [sp.attrs for sp in rec_ref.spans]


@settings(max_examples=25, deadline=None)
@given(any_study)
def test_comparison_lists_match_the_oracle_in_order(ds):
    vec, ref = Analysis(ds), oracle_scalar.OracleAnalysis(ds)
    for opt in ("coop-cv", "wg", "fg", "sz256"):
        for tests in (ds.tests, ds.tests[::-1], ds.tests[:1]):
            assert vec.comparison_lists(tests, opt) == ref.comparison_lists(tests, opt)


@settings(max_examples=25, deadline=None)
@given(any_study)
def test_strategies_match_the_oracle(ds):
    got = build_strategies(ds)
    want = build_strategies(ds, oracle_scalar.OracleAnalysis(ds))
    assert {n: s.to_dict() for n, s in got.items()} == {
        n: s.to_dict() for n, s in want.items()
    }
    assert got["oracle"].assignment == {
        (t.app, t.graph, t.chip): ds.best_config(t) for t in ds.tests
    }


@settings(max_examples=25, deadline=None)
@given(any_study)
def test_portfolio_steps_match_the_oracle_exactly(ds):
    got = build_portfolios(ds).to_dict()
    assert got == oracle_scalar.build_portfolios(ds).to_dict()


@settings(max_examples=25, deadline=None)
@given(any_study, st.integers(1, 4), st.sampled_from([None, "baseline", "wg"]))
def test_greedy_and_coverage_match_the_oracle(ds, k_max, seed):
    args = dict(level="global", key=(), seed=seed, k_max=k_max)
    curve = greedy_portfolio(ds, ds.tests, **args)
    want = oracle_scalar.greedy_portfolio(ds, ds.tests, **args)
    assert curve.to_dict() == want.to_dict()
    for k in range(1, len(curve.steps) + 1):
        chosen = curve.configs_for(k)
        assert portfolio_coverage(ds, ds.tests, chosen) == (
            oracle_scalar.portfolio_coverage(ds, ds.tests, chosen)
        )
