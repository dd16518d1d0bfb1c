"""Run-report counters of the analysis core, pinned; and its import guard.

The counter values are those the scalar analysis produced on the
golden mini study (``tests/goldens/mini-dataset.json.gz``) for the
eight Table V levels: the vectorized filter counts each mirror pair
once, on first use, so the totals and the per-level
``analysis.specialise`` span attributes are unchanged.  The
decision-margin gauge names how close the filter came to flipping a
decision.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.core import Analysis, build_strategies
from repro.core.algorithm1 import _FilterTable
from repro.obs import Recorder
from repro.study.dataset import PerfDataset

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
MINI = os.path.join(TESTS, "goldens", "mini-dataset.json.gz")

MINI_COUNTERS = {
    "analysis.mwu.tests": 318,
    "analysis.mwu.insufficient": 18,
    "analysis.filter.significant": 2339,
    "analysis.filter.insignificant": 3133,
    "analysis.pairs.missing": 0,
}


@pytest.fixture(scope="module")
def mini():
    return PerfDataset.load(MINI)


def _strategies_report(dataset):
    rec = Recorder(clock=lambda: 0.0)
    with obs.recording(rec):
        build_strategies(dataset, Analysis(dataset, recorder=rec))
    return rec


def test_mini_golden_counters_are_pinned(mini):
    rec = _strategies_report(mini)
    for name, value in MINI_COUNTERS.items():
        assert rec.counter_value(name) == value, name
    # Every Welch-testable pair was evaluated once, in the recording scope.
    assert rec.counter_value("analysis.welch_intervals") == 2339 + 3133


def test_filter_counts_land_on_the_level_of_first_use(mini):
    spans = [s.attrs for s in _strategies_report(mini).spans]
    assert [s["level"] for s in spans][:2] == ["global", "chip"]
    assert spans[0]["filter_significant"] == 2339
    assert spans[0]["filter_insignificant"] == 3133
    for attrs in spans[1:]:
        assert attrs["filter_significant"] == attrs["filter_insignificant"] == 0
    assert sum(s["mwu_tests"] for s in spans) == 318
    assert sum(s["mwu_insufficient"] for s in spans) == 18


def test_min_margin_gauge_and_span_attribute(mini):
    rec = _strategies_report(mini)
    margin = rec.gauges["analysis.filter.min_margin"]
    assert 0.0 < margin < 1.0
    assert round(margin, 5) == 0.00082  # the mini study's closest call
    spans = [s for s in rec.spans if s.name == "analysis.specialise"]
    assert all(s.attrs["filter_min_margin"] == margin for s in spans)


def test_min_margin_gauge_keeps_the_smallest_across_analyses(mini):
    rec = Recorder(clock=lambda: 0.0)
    for confidence in (0.95, 0.80):
        Analysis(mini, confidence=confidence, recorder=rec).specialise(())
    spans = [s for s in rec.spans if s.name == "analysis.specialise"]
    margins = [s.attrs["filter_min_margin"] for s in spans]
    assert rec.gauges["analysis.filter.min_margin"] == min(margins)


def test_filter_table_is_built_inside_the_first_specialise(mini, monkeypatch):
    built = []
    real_init = _FilterTable.__init__

    def spy(self, *args, **kwargs):
        built.append(True)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(_FilterTable, "__init__", spy)
    analysis = Analysis(mini)
    assert not built and analysis._table is None
    analysis.specialise(())
    assert built == [True]
    analysis.specialise(("chip",))
    assert built == [True]  # reused by every later level


_GUARD = """
import json, sys
import repro
from repro.serve.index import build_index
from repro.study.dataset import PerfDataset

index = build_index(PerfDataset.load(sys.argv[1]), portfolios=True)
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "entries": index.n_entries,
    "curves": index.portfolios.n_curves,
}))
"""


def test_analysis_path_never_imports_scipy():
    """``import repro`` plus a portfolio index build stays scipy-free:
    ``scipy.special`` alone would cost more memory and start-up time
    than the analysis it would serve."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _GUARD, MINI],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["scipy"] == []
    assert result["entries"] > 0 and result["curves"] > 0
