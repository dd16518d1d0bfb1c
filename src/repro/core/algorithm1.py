"""Algorithm 1: finding optimisation strategies from empirical data.

The paper's central procedure.  For a data partition (all tests, or
the tests sharing a chip, an application, an input, or a combination):

1. For each optimisation ``opt``, every configuration with ``opt``
   enabled is paired with its *mirror* (identical but ``opt``
   disabled).
2. For every test in the partition, if the two timings differ
   significantly (95 % CI), the normalised runtime
   ``median(enabled) / median(disabled)`` joins list ``A`` and the
   constant 1.0 joins list ``B``.
3. A Mann-Whitney U test on (A, B) decides whether ``opt`` changed
   runtimes; ``opt`` is enabled only for a significant change whose
   median indicates a speedup (``median(A) < 1``).

The procedure is magnitude-agnostic by construction: step 3 is
rank-based, so a chip on which the optimisation produces 20× swings
gets exactly the same vote as one with 1.05× swings.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.options import OPT_NAMES, OptConfig, configs_with, disable_opt
from ..errors import InsufficientDataError
from ..obs import get_recorder
from ..study.dataset import PerfDataset, TestCase
from ..study.tensor import MeasurementTensor
from .significance import welch_tail
from .stats.effect import cl_effect_size
from .stats.mwu import mann_whitney_u
from .stats.summary import median

__all__ = ["OptDecision", "Analysis", "SPECIALISATION_DIMS"]

#: The three specialisation dimensions, in the paper's naming.  The
#: dataset calls inputs "graphs"; ``input`` here maps onto that axis.
SPECIALISATION_DIMS: Tuple[str, ...] = ("chip", "app", "input")


@dataclass(frozen=True)
class OptDecision:
    """The analysis verdict for one optimisation on one partition."""

    opt: str
    enabled: bool
    inconclusive: bool  # too few significant samples to decide
    p_value: float
    effect_size: float  # CL: P(random pair shows a speedup)
    median_ratio: float  # median normalised runtime (NaN if no samples)
    n_samples: int

    def mark(self) -> str:
        """Table IX cell: ✓ enabled, ✗ disabled, ? inconclusive."""
        if self.inconclusive:
            return "?"
        return "+" if self.enabled else "-"


class _FilterTable:
    """Every mirror pair of a dataset through the Welch filter, at once.

    Columns are Algorithm 1's mirror pairs — for each optimisation in
    ``OPT_NAMES`` order, every configuration with it enabled (in
    ``configs_with`` order) against its mirror — and rows are the
    tensor's tests.  The filter runs as one numpy pass per
    ``(n_on, n_off)`` repetition-count group, so every reduction sees
    exactly-sized rows; ``ratio`` holds the normalised runtime of each
    significant pair, NaN elsewhere.
    """

    def __init__(self, tensor: MeasurementTensor, confidence: float) -> None:
        self.columns: Dict[str, slice] = {}
        on_ids: List[int] = []
        off_ids: List[int] = []
        for opt in OPT_NAMES:
            start = len(on_ids)
            for cfg in configs_with(opt):
                on_ids.append(_id_or_absent(tensor, cfg))
                off_ids.append(_id_or_absent(tensor, disable_opt(cfg, opt)))
            self.columns[opt] = slice(start, len(on_ids))
        on, off = np.array(on_ids), np.array(off_ids)
        # A configuration the dataset never measured maps to an extra,
        # all-absent column past the tensor's last one.
        counts = _pad(tensor.counts, 0)
        n_on, n_off = counts[:, on], counts[:, off]
        self.present = (n_on > 0) & (n_off > 0)
        self.welch = (n_on >= 2) & (n_off >= 2)
        tail = np.full(self.present.shape, np.nan)
        sizes = np.stack([n_on[self.welch], n_off[self.welch]])
        for na, nb in np.unique(sizes, axis=1).T:
            rows, cols = np.nonzero(self.welch & (n_on == na) & (n_off == nb))
            tail[rows, cols] = welch_tail(
                tensor.times[rows, on[cols], :na],
                tensor.times[rows, off[cols], :nb],
            )
        level = 1.0 - confidence
        self.significant = tail < level
        medians = _pad(tensor.medians, np.nan)
        self.ratio = np.where(
            self.significant, medians[:, on] / medians[:, off], np.nan
        )
        #: Smallest relative distance of any pair's p-value from the
        #: decision level (None without Welch-testable pairs): how far
        #: a numerics change must move to flip a decision.
        margins = np.abs(tail[self.welch] - level) / level
        margins = margins[~np.isnan(margins)]
        self.min_margin = float(margins.min()) if margins.size else None
        #: Pairs already counted by the filter counters.
        self.used = np.zeros(self.present.shape, dtype=bool)


def _id_or_absent(tensor: MeasurementTensor, config: OptConfig) -> int:
    cid = tensor.config_id(config)
    return len(tensor.configs) if cid is None else cid


def _pad(matrix: np.ndarray, fill) -> np.ndarray:
    """``matrix`` with one extra column of ``fill`` (the absent config)."""
    column = np.full((matrix.shape[0], 1), fill, dtype=matrix.dtype)
    return np.concatenate([matrix, column], axis=1)


class Analysis:
    """Algorithm 1 over a dataset, with every comparison filtered once."""

    def __init__(
        self,
        dataset: PerfDataset,
        confidence: float = 0.95,
        alpha: float = 0.05,
        min_samples: int = 3,
        recorder=None,
    ) -> None:
        self.dataset = dataset
        self.confidence = confidence
        self.alpha = alpha
        self.min_samples = min_samples
        #: Cell coverage of the analysed dataset; attached to derived
        #: strategies so reports can footnote degraded runs.
        self.coverage = dataset.coverage()
        # Built on first use (inside the first ``specialise``), so the
        # filter's cost lands on the level that needs it.
        self._table: Optional[_FilterTable] = None
        # None defers to the process-wide current recorder at call time,
        # so ``with obs.recording(rec):`` captures analyses transparently.
        self._recorder = recorder

    def _rec(self):
        return self._recorder if self._recorder is not None else get_recorder()

    # -- the inner comparison (lines 11-16) -----------------------------

    def _filter(self) -> _FilterTable:
        if self._table is None:
            self._table = _FilterTable(self.dataset.tensor(), self.confidence)
            margin = self._table.min_margin
            if margin is not None:
                _record_min(self._rec(), "analysis.filter.min_margin", margin)
        return self._table

    def comparison_lists(
        self, tests: Sequence[TestCase], opt: str
    ) -> Tuple[List[float], List[float]]:
        """Algorithm 1's A and B lists for one optimisation.

        A gathers the significant normalised runtimes
        ``median(enabled) / median(disabled)``, configuration-major in
        ``configs_with(opt)`` order and then in ``tests`` order.  A pair
        with a side never measured (or quarantined) contributes no
        sample and counts ``analysis.pairs.missing``; the filter
        counters count each pair once, on its first use.
        """
        table = self._filter()
        cols = table.columns[opt]
        index = self.dataset.tensor().test_index
        known = [index[t] for t in tests if t in index]
        rows = np.array(known, dtype=np.intp)
        present = table.present[rows, cols]
        rec = self._rec()
        missing = (len(tests) - len(known)) * (cols.stop - cols.start)
        missing += int(present.size - np.count_nonzero(present))
        _count_nonzero(rec, "analysis.pairs.missing", missing)
        first = np.array(list(dict.fromkeys(known)), dtype=np.intp)
        fresh = table.present[first, cols] & ~table.used[first, cols]
        if fresh.any():
            table.used[first, cols] |= fresh
            n_sig = int(np.count_nonzero(fresh & table.significant[first, cols]))
            n_welch = int(np.count_nonzero(fresh & table.welch[first, cols]))
            n_fresh = int(np.count_nonzero(fresh))
            _count_nonzero(rec, "analysis.filter.significant", n_sig)
            _count_nonzero(rec, "analysis.filter.insignificant", n_fresh - n_sig)
            # As the scalar filter did, via the current recorder.
            current = get_recorder()
            _count_nonzero(current, "analysis.welch_intervals", n_welch)
            _count_nonzero(current, "analysis.pairs.single_sample", n_fresh - n_welch)
        mask = (present & table.significant[rows, cols]).T
        a = table.ratio[rows, cols].T[mask].tolist()
        return a, [1.0] * len(a)

    # -- ENABLE_OPT (lines 20-22) ----------------------------------------

    def decide(self, tests: Sequence[TestCase], opt: str) -> OptDecision:
        """Run the MWU decision for one optimisation on a partition."""
        a, b = self.comparison_lists(tests, opt)
        effect = cl_effect_size(a, b)
        med = median(a) if a else float("nan")
        try:
            result = mann_whitney_u(a, b, min_samples=self.min_samples)
            self._rec().count("analysis.mwu.tests")
        except InsufficientDataError:
            self._rec().count("analysis.mwu.insufficient")
            return OptDecision(
                opt=opt,
                enabled=False,
                inconclusive=True,
                p_value=float("nan"),
                effect_size=effect,
                median_ratio=med,
                n_samples=len(a),
            )
        enabled = result.reject_null(self.alpha) and med < 1.0
        return OptDecision(
            opt=opt,
            enabled=enabled,
            inconclusive=False,
            p_value=result.p_value,
            effect_size=effect,
            median_ratio=med,
            n_samples=len(a),
        )

    # -- OPTS_FOR_PARTITION (lines 7-19) -----------------------------------

    def opts_for_partition(
        self, tests: Sequence[TestCase]
    ) -> Dict[str, OptDecision]:
        """Decisions for every optimisation on one partition.

        ``fg`` and ``fg8`` are mutually exclusive variants of one
        numeric parameter; if the analysis recommends both, the one
        with the stronger effect size wins (the paper evaluates them
        as separate binary optimisations with the same constraint).
        """
        decisions = {opt: self.decide(tests, opt) for opt in OPT_NAMES}
        if decisions["fg"].enabled and decisions["fg8"].enabled:
            weaker = (
                "fg"
                if decisions["fg"].effect_size <= decisions["fg8"].effect_size
                else "fg8"
            )
            d = decisions[weaker]
            decisions[weaker] = OptDecision(
                opt=d.opt,
                enabled=False,
                inconclusive=d.inconclusive,
                p_value=d.p_value,
                effect_size=d.effect_size,
                median_ratio=d.median_ratio,
                n_samples=d.n_samples,
            )
        return decisions

    def config_for_partition(self, tests: Sequence[TestCase]) -> OptConfig:
        """The partition's recommended configuration."""
        decisions = self.opts_for_partition(tests)
        return OptConfig.from_names(
            name for name, d in decisions.items() if d.enabled
        )

    # -- SPECIALISE_FOR_* (lines 1-6), generalised over dimensions ----------

    def _partition_key(self, test: TestCase, dims: Sequence[str]) -> Tuple:
        values = []
        for dim in dims:
            if dim == "chip":
                values.append(test.chip)
            elif dim == "app":
                values.append(test.app)
            elif dim == "input":
                values.append(test.graph)
            else:
                raise ValueError(
                    f"unknown specialisation dimension {dim!r}; "
                    f"expected a subset of {SPECIALISATION_DIMS}"
                )
        return tuple(values)

    def partitions(
        self, dims: Sequence[str], tests: Optional[Iterable[TestCase]] = None
    ) -> Dict[Tuple, List[TestCase]]:
        """Group tests by their values along the given dimensions."""
        groups: Dict[Tuple, List[TestCase]] = {}
        for test in tests if tests is not None else self.dataset.tests:
            groups.setdefault(self._partition_key(test, dims), []).append(test)
        return groups

    def specialise(self, dims: Sequence[str]) -> Dict[Tuple, OptConfig]:
        """One recommended configuration per partition.

        ``dims=()`` is the fully portable *global* strategy;
        ``dims=("chip",)`` reproduces the paper's
        ``SPECIALISE_FOR_CHIP``; multi-dimension tuples give the
        semi-specialised strategies of Section VII.
        """
        with self._specialise_span(dims) as finish:
            result = {
                key: self.config_for_partition(tests)
                for key, tests in self.partitions(dims).items()
            }
            finish(len(result))
        return result

    def specialise_decisions(
        self, dims: Sequence[str]
    ) -> Dict[Tuple, Dict[str, OptDecision]]:
        """Like :meth:`specialise` but keeping full decision detail
        (needed for Table IX's effect sizes and ? entries)."""
        with self._specialise_span(dims) as finish:
            result = {
                key: self.opts_for_partition(tests)
                for key, tests in self.partitions(dims).items()
            }
            finish(len(result))
        return result

    @contextmanager
    def _specialise_span(self, dims: Sequence[str]):
        """An ``analysis.specialise`` span carrying per-level counts.

        The yielded callable closes the bookkeeping: called with the
        partition count, it attaches the number of MWU tests run and
        comparisons filtered *at this specialisation level* (deltas of
        the analysis counters, so comparisons first used at earlier
        levels are not re-counted), plus the filter's smallest decision
        margin (``filter_min_margin``)."""
        rec = self._rec()
        level = "+".join(dims) if dims else "global"
        before = {
            name: rec.counter_value(name)
            for name in (
                "analysis.mwu.tests",
                "analysis.mwu.insufficient",
                "analysis.filter.significant",
                "analysis.filter.insignificant",
                "analysis.pairs.missing",
            )
        }
        with rec.span("analysis.specialise", level=level) as span:

            def finish(n_partitions: int) -> None:
                span.set("partitions", n_partitions)
                for name, start in before.items():
                    span.set(
                        name.split("analysis.", 1)[1].replace(".", "_"),
                        rec.counter_value(name) - start,
                    )
                if self._table is not None and self._table.min_margin is not None:
                    span.set("filter_min_margin", self._table.min_margin)

            yield finish


def _count_nonzero(rec, name: str, n: int) -> None:
    """Count ``n`` events, creating no counter for zero."""
    if n:
        rec.count(name, n)


def _record_min(rec, name: str, value: float) -> None:
    """Gauge the smallest value seen under ``name`` by this recorder."""
    seen = getattr(rec, "gauges", {}).get(name)
    rec.gauge(name, value if seen is None else min(seen, value))
