"""Multi-version portfolios: the "few fit most" greedy set-cover.

The paper shows no single configuration is best everywhere; *A Few Fit
Most* (Hochgraf & Pai, PAPERS.md) asks the natural follow-up: how many
configurations K must a deployment ship so that, picking the best of
the K per test, it achieves at least X % of oracle performance?  This
module answers that question for every specialisation level of the
paper's Table V lattice.

**Coverage metric.**  For a partition's tests and a configuration set
``S``, coverage is the geometric mean over tests of::

    median(oracle) / median(best config of S measured for the test)

— the fraction of exhaustively-tuned performance the portfolio
retains, in ``(0, 1]``.  A test where *no* configuration of ``S`` was
measured contributes ``median(oracle) / median(worst measured
config)`` (the pessimal deploy), so adding a configuration can never
lower coverage and the curve is exactly monotone in K.  Tests with no
measurements at all are skipped — the same degraded-mode semantics as
:func:`repro.core.evaluation.strategy_slowdown_vs_oracle`.

**Greedy construction.**  The first configuration is the Algorithm 1
strategy's recommendation for the partition (so a K = 1 portfolio *is*
the paper's strategy, by construction); each subsequent step adds the
configuration with the largest marginal coverage gain, ties broken by
lexicographic configuration key.  The curve stops when coverage
reaches 1.0 (per-test best of ``S`` equals the oracle everywhere), no
candidate gains, or ``k_max`` is hit — so ``coverage_at(len(configs))``
is always 1.0, the oracle.  All candidate orderings are canonical
(sorted tests, sorted configuration keys), making the output
independent of dataset insertion order.

The result is a :class:`PortfolioSet`: one :class:`PortfolioCurve` per
lattice partition, each a list of :class:`PortfolioStep` entries
carrying the chosen configuration, the cumulative coverage and the
marginal gain — the provenance a K-vs-coverage figure plots and the
``portfolios`` table of the strategy-index artifact serializes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..study.dataset import Coverage, PerfDataset, TestCase
from .algorithm1 import Analysis
from .strategies import STRATEGY_DIMS, Strategy, build_strategies

__all__ = [
    "DEFAULT_TARGET",
    "PORTFOLIO_LEVELS",
    "PortfolioCurve",
    "PortfolioSet",
    "PortfolioStep",
    "build_portfolios",
    "greedy_portfolio",
    "portfolio_coverage",
]

#: Default fraction-of-oracle target when a query names neither ``k``
#: nor ``target``: the portfolio is grown until per-cell best-of-K
#: retains at least this fraction of exhaustive tuning.
DEFAULT_TARGET = 0.95

#: The lattice levels portfolios are computed for — every Algorithm 1
#: specialisation (the ``baseline`` level has no choice to make).
PORTFOLIO_LEVELS: Tuple[str, ...] = tuple(STRATEGY_DIMS)


@dataclass(frozen=True)
class PortfolioStep:
    """One greedy step: the configuration added and what it bought."""

    config: str  # OptConfig.key()
    coverage: float  # cumulative fraction-of-oracle after this step
    gain: float  # marginal coverage gain over the previous step

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "coverage": self.coverage,
            "gain": self.gain,
        }


@dataclass
class PortfolioCurve:
    """The K-vs-coverage curve of one lattice partition."""

    level: str
    key: Tuple[str, ...]
    steps: List[PortfolioStep] = field(default_factory=list)
    #: Tests of the partition with at least one measurement.
    n_tests: int = 0

    def coverage_at(self, k: int) -> float:
        """Fraction of oracle retained by the first ``k`` configs.

        ``k`` beyond the curve returns the final coverage (the greedy
        stops once nothing more can be gained); ``k < 1`` raises.
        """
        if k < 1:
            raise AnalysisError(f"portfolio size k must be positive, got {k}")
        if not self.steps:
            return 1.0
        return self.steps[min(k, len(self.steps)) - 1].coverage

    def configs_for(self, k: int) -> List[str]:
        """The first ``min(k, len(curve))`` configuration keys."""
        if k < 1:
            raise AnalysisError(f"portfolio size k must be positive, got {k}")
        return [step.config for step in self.steps[:k]]

    def k_for(self, target: float) -> int:
        """The smallest K whose coverage meets ``target``.

        Every curve ends at coverage 1.0, so any ``target <= 1`` is
        reachable; targets above 1 are rejected upstream.
        """
        for i, step in enumerate(self.steps):
            if step.coverage >= target:
                return i + 1
        return max(1, len(self.steps))

    def to_dict(self) -> dict:
        return {
            "key": list(self.key),
            "n_tests": self.n_tests,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, level: str, data: dict) -> "PortfolioCurve":
        try:
            return cls(
                level=level,
                key=tuple(data["key"]),
                steps=[
                    PortfolioStep(
                        config=raw["config"],
                        coverage=raw["coverage"],
                        gain=raw["gain"],
                    )
                    for raw in data["steps"]
                ],
                n_tests=data["n_tests"],
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(
                f"malformed portfolio curve at level {level!r}: {exc!r}"
            ) from exc


class _Partition:
    """A partition's medians as a configs × tests matrix.

    Rows are the configurations measured for at least one of the
    partition's tests, in lexicographic key order; columns are the
    tests with at least one measurement, in sorted order.  Holes are
    ``inf``, so a running ``min`` over chosen rows is each test's best
    deployed median.
    """

    def __init__(self, dataset: PerfDataset, tests: Sequence[TestCase]) -> None:
        tensor = dataset.tensor()
        index = tensor.test_index
        rows = tensor.test_ids(t for t in sorted(tests) if t in index)
        rows = rows[tensor.present[rows].any(axis=1)]
        present = tensor.present[rows]
        measured = np.where(present, tensor.medians[rows], np.inf)
        by_key = sorted(range(len(tensor.configs)), key=tensor.config_keys.__getitem__)
        cols = [c for c in by_key if present[:, c].any()]
        self.keys: List[str] = [tensor.config_keys[c] for c in cols]
        self.n_tests = len(rows)
        self.oracle = measured.min(axis=1, initial=np.inf)
        self.worst = np.where(present, measured, -np.inf).max(axis=1, initial=-np.inf)
        self.medians = np.ascontiguousarray(measured[:, cols].T)

    def coverage(self, best: np.ndarray) -> np.ndarray:
        """Coverage of deployed sets, from each test's best median.

        ``best`` holds each test's best median over a set (``inf``
        where none of the set was measured) — one set per row of a
        2-D array.  Every value is the geomean of ``oracle / best``
        that :func:`repro.util.geomean` computes for one set.
        """
        deployed = np.where(np.isinf(best), self.worst, best)
        return np.exp(np.log(self.oracle / deployed).mean(axis=-1))

    def best_of(self, keys: Sequence[str]) -> np.ndarray:
        """Each test's best median over ``keys`` (``inf`` where none)."""
        wanted = set(keys)
        rows = [i for i, k in enumerate(self.keys) if k in wanted]
        return self.medians[rows].min(axis=0, initial=np.inf)


def portfolio_coverage(
    dataset: PerfDataset,
    tests: Sequence[TestCase],
    configs: Sequence[str],
) -> float:
    """Fraction of oracle a configuration set retains over ``tests``.

    Geomean over tests of ``median(oracle) / median(best of configs)``;
    a test none of ``configs`` was measured for counts its worst
    measured configuration (the pessimal deploy), and tests with no
    measurements at all are skipped.
    """
    part = _Partition(dataset, tests)
    if not part.n_tests:
        return 1.0
    return float(part.coverage(part.best_of(configs)))


def greedy_portfolio(
    dataset: PerfDataset,
    tests: Sequence[TestCase],
    *,
    level: str,
    key: Tuple[str, ...],
    seed: Optional[str] = None,
    k_max: Optional[int] = None,
) -> PortfolioCurve:
    """The greedy set-cover curve for one partition.

    ``seed`` (the Algorithm 1 strategy's configuration for this
    partition) is taken first so K = 1 reproduces the paper's strategy;
    subsequent steps add the configuration with the largest marginal
    coverage gain, ties broken by lexicographic configuration key.
    Stops at coverage 1.0, at ``k_max``, or when no candidate gains.
    Each step scores every remaining candidate in one numpy pass over
    the partition's median matrix.
    """
    part = _Partition(dataset, tests)
    curve = PortfolioCurve(level=level, key=key, n_tests=part.n_tests)
    if not part.n_tests:
        return curve
    chosen: List[str] = []
    best = np.full(part.n_tests, np.inf)
    coverage = 0.0
    if seed is not None:
        chosen.append(seed)
        best = part.best_of(chosen)
        coverage = float(part.coverage(best))
        curve.steps.append(
            PortfolioStep(config=seed, coverage=coverage, gain=coverage)
        )
    while coverage < 1.0 and (k_max is None or len(chosen) < k_max):
        rows = [i for i, k in enumerate(part.keys) if k not in chosen]
        if not rows:
            break
        covs = part.coverage(np.minimum(best, part.medians[rows]))
        pick = int(np.argmax(covs))  # first (lowest key) of the maxima
        best_cov = float(covs[pick])
        if not best_cov > coverage:
            break
        row = rows[pick]
        chosen.append(part.keys[row])
        best = np.minimum(best, part.medians[row])
        curve.steps.append(
            PortfolioStep(
                config=part.keys[row],
                coverage=best_cov,
                gain=best_cov - coverage,
            )
        )
        coverage = best_cov
    return curve


class PortfolioSet:
    """Every lattice partition's K-vs-coverage curve, queryable."""

    def __init__(
        self,
        levels: Dict[str, Dict[Tuple[str, ...], PortfolioCurve]],
        coverage: Optional[Coverage] = None,
    ) -> None:
        self.levels = levels
        #: Cell coverage of the dataset the portfolios were derived
        #: from (for footnoting degraded derivations).
        self.coverage = coverage

    @property
    def n_curves(self) -> int:
        return sum(len(cells) for cells in self.levels.values())

    def curve(
        self, level: str, key: Sequence[str]
    ) -> Optional[PortfolioCurve]:
        return self.levels.get(level, {}).get(tuple(key))

    def to_dict(self) -> dict:
        return {
            level: [
                curve.to_dict() for _, curve in sorted(cells.items())
            ]
            for level, cells in self.levels.items()
        }

    @classmethod
    def from_dict(
        cls, data: dict, coverage: Optional[Coverage] = None
    ) -> "PortfolioSet":
        if not isinstance(data, dict):
            raise AnalysisError(
                "malformed portfolio payload: expected a mapping of "
                "levels to curve lists"
            )
        levels: Dict[str, Dict[Tuple[str, ...], PortfolioCurve]] = {}
        for level, curves in data.items():
            if level not in PORTFOLIO_LEVELS:
                raise AnalysisError(
                    f"unknown portfolio level {level!r}; expected one "
                    f"of {PORTFOLIO_LEVELS}"
                )
            cells: Dict[Tuple[str, ...], PortfolioCurve] = {}
            for raw in curves:
                curve = PortfolioCurve.from_dict(level, raw)
                cells[curve.key] = curve
            levels[level] = cells
        return cls(levels, coverage=coverage)


def build_portfolios(
    dataset: PerfDataset,
    *,
    analysis: Optional[Analysis] = None,
    strategies: Optional[Dict[str, Strategy]] = None,
    k_max: Optional[int] = None,
    levels: Optional[Sequence[str]] = None,
) -> PortfolioSet:
    """Greedy portfolios for every partition of every lattice level.

    The dataset is expected to be audited already (quarantined cells
    removed — :func:`repro.study.audit.audit_dataset`); holes degrade
    coverage, not correctness.  ``analysis`` and ``strategies`` allow
    reuse of an existing Algorithm 1 run.
    """
    if analysis is None:
        analysis = Analysis(dataset)
    if strategies is None:
        strategies = build_strategies(dataset, analysis)
    wanted = tuple(levels) if levels is not None else PORTFOLIO_LEVELS
    unknown = set(wanted) - set(PORTFOLIO_LEVELS)
    if unknown:
        raise AnalysisError(
            f"unknown portfolio level(s) {sorted(unknown)}; expected a "
            f"subset of {PORTFOLIO_LEVELS}"
        )
    out: Dict[str, Dict[Tuple[str, ...], PortfolioCurve]] = {}
    for level in wanted:
        dims = STRATEGY_DIMS[level]
        partitions = analysis.partitions(dims)
        cells: Dict[Tuple[str, ...], PortfolioCurve] = {}
        for key in sorted(partitions):
            seed_config = strategies[level].assignment.get(key)
            cells[key] = greedy_portfolio(
                dataset,
                partitions[key],
                level=level,
                key=key,
                seed=seed_config.key() if seed_config is not None else None,
                k_max=k_max,
            )
        out[level] = cells
    return PortfolioSet(out, coverage=analysis.coverage)


def main(argv=None) -> int:
    """CLI: ``python -m repro portfolio DATASET``."""
    import argparse
    import sys

    from ..cli import metrics_parent, save_run_report
    from ..errors import DatasetError, InsufficientCoverageError
    from ..obs import Recorder, recording
    from ..study.audit import (
        DEFAULT_COVERAGE_FLOOR,
        audit_dataset,
        require_coverage,
    )

    parser = argparse.ArgumentParser(
        prog="repro-portfolio",
        parents=[metrics_parent()],
        description=(
            "Compute greedy K-vs-coverage configuration portfolios for "
            "every lattice level of a study dataset."
        ),
    )
    parser.add_argument("dataset", help="input PerfDataset JSON (.gz ok)")
    parser.add_argument(
        "--target",
        type=float,
        default=DEFAULT_TARGET,
        metavar="FRACTION",
        help=(
            "fraction-of-oracle target for the K-to-reach column "
            f"(default {DEFAULT_TARGET})"
        ),
    )
    parser.add_argument(
        "--k-max",
        type=int,
        default=None,
        metavar="N",
        help="cap portfolio size (default: grow until 100%% of oracle)",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=DEFAULT_COVERAGE_FLOOR,
        metavar="FRACTION",
        help=(
            "refuse to analyse below this audited cell-coverage "
            f"fraction (default {DEFAULT_COVERAGE_FLOOR})"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the portfolio curves as JSON to PATH",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.target <= 1.0:
        print("[portfolio] --target must be in (0, 1]", file=sys.stderr)
        return 1
    if args.k_max is not None and args.k_max < 1:
        print("[portfolio] --k-max must be positive", file=sys.stderr)
        return 1

    try:
        dataset = PerfDataset.load(args.dataset)
    except DatasetError as exc:
        print(f"[portfolio] {exc}", file=sys.stderr)
        return 1
    audit = audit_dataset(dataset)
    try:
        require_coverage(audit.coverage, args.min_coverage)
    except InsufficientCoverageError as exc:
        print(f"[portfolio] {exc}", file=sys.stderr)
        return 1

    from ..experiments import portfolio_curve as experiment

    rec = Recorder() if args.metrics else None

    def _render() -> str:
        portfolios = build_portfolios(audit.dataset, k_max=args.k_max)
        if args.output:
            with open(args.output, "w") as f:
                json.dump(portfolios.to_dict(), f, sort_keys=True)
            print(f"[portfolio] wrote {args.output}", file=sys.stderr)
        return experiment.run(
            audit.dataset, portfolios=portfolios, target=args.target
        )

    if rec is not None:
        with recording(rec):
            with rec.span("portfolio.build"):
                output = _render()
    else:
        output = _render()
    print(output)
    if rec is not None:
        save_run_report(rec, args.metrics, meta={"dataset": args.dataset})
        print(
            f"[portfolio] wrote run report to {args.metrics}",
            file=sys.stderr,
        )
    return 0
