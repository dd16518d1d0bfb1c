"""Beyond the paper: quality vs budget for lattice search strategies.

*Towards a Benchmarking Suite for Kernel Tuners* (PAPERS.md) reframes
the paper's exhaustive 96-configuration sweep as a search problem:
with a hard evaluation budget, how much of the exhaustively-tuned
(oracle) performance can a search recover?  This experiment replays
the strategies of :mod:`repro.core.search` against the measured
dataset via :mod:`repro.core.search_eval` — the dataset is the oracle,
nothing is re-simulated — and renders fraction-of-oracle at each
budget:

* one row per strategy (``random`` is the baseline every other row
  should dominate at equal budget);
* one column per budget, in full-fidelity evaluation units out of the
  96-configuration lattice — the last column is the exhaustive sweep,
  where every strategy recovers the oracle exactly.

Each cell is the geometric mean over every (app, input, chip) test and
``trials`` independently-seeded replays.  On a holed dataset the
replays treat missing cells as free, uninformative probes and the
table carries the usual coverage footnote.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.reporting import render_table
from ..core.search import SEARCH_STRATEGIES
from ..core.search_eval import DEFAULT_BUDGETS, Replays, budget_fractions
from ..study.dataset import PerfDataset
from .common import coverage_footnote, default_dataset

__all__ = ["data", "run"]


def data(
    dataset: Optional[PerfDataset] = None,
    strategies: Optional[Sequence[str]] = None,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    trials: int = 8,
    seed: int = 0,
    replays: Optional[Replays] = None,
) -> Dict[str, Dict[int, float]]:
    """Strategy -> budget -> geomean fraction-of-oracle."""
    if dataset is None:
        dataset = default_dataset()
    return budget_fractions(
        dataset,
        strategies=strategies,
        budgets=budgets,
        trials=trials,
        seed=seed,
        replays=replays,
    )


def run(
    dataset: Optional[PerfDataset] = None,
    strategies: Optional[Sequence[str]] = None,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    trials: int = 8,
    seed: int = 0,
    replays: Optional[Replays] = None,
) -> str:
    if dataset is None:
        dataset = default_dataset()
    results = data(
        dataset,
        strategies=strategies,
        budgets=budgets,
        trials=trials,
        seed=seed,
        replays=replays,
    )
    names = (
        list(strategies)
        if strategies is not None
        else sorted(SEARCH_STRATEGIES)
    )
    headers = ["Strategy"] + [f"B={b}" for b in budgets]
    rows = [
        [name] + [f"{results[name][b] * 100:.1f}%" for b in budgets]
        for name in names
    ]
    table = render_table(
        headers,
        rows,
        title=(
            "Budgeted autotuning: fraction of oracle performance at N "
            "evaluations\n(geomean over tests and "
            f"{trials} seeded replays; B={max(budgets)} is the "
            "exhaustive sweep)"
        ),
    )
    note = (
        "\nrandom is the baseline: a structured search earns its keep "
        "only where its row\nmeets or beats random at equal budget."
    )
    return table + note + coverage_footnote(dataset)
