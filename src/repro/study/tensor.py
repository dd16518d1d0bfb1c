"""The measurement tensor: a dataset as dense arrays over interned ids.

Every hot analysis path (Algorithm 1's Welch filter, the portfolio
set cover, the index's oracle and entry metadata) reads the dataset as
a tests × configurations table.  :class:`MeasurementTensor` holds that
table once, built by :meth:`repro.study.dataset.PerfDataset.tensor`:

* ``tests`` / ``configs`` — the axes, in dataset insertion order; a
  test's or configuration's position is its integer id;
* ``times`` — float64, shape ``tests × configs × max_reps``, each
  cell's repeated timings in stored order, padded with NaN;
* ``counts`` — int, shape ``tests × configs``: repetitions per cell,
  0 for a hole (never measured, or quarantined by an audit);
* ``medians`` — float64, shape ``tests × configs``, NaN for a hole.

Medians are the middle value (odd counts) or the mean of the two
middle values (even counts), bit-identical to ``numpy.median`` on the
cell's timings.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..compiler.options import OptConfig

__all__ = ["MeasurementTensor"]


class MeasurementTensor:
    """Dense timing arrays of one dataset (see the module docstring)."""

    def __init__(
        self, tests: Sequence, configs: Sequence[OptConfig], cells: Iterable
    ) -> None:
        """Build from ``(test, config_key, times)`` cells over the axes."""
        self.tests: List = list(tests)
        self.configs: List[OptConfig] = list(configs)
        self.config_keys: List[str] = [c.key() for c in self.configs]
        self.test_index: Dict = {t: i for i, t in enumerate(self.tests)}
        self.config_index: Dict[str, int] = {
            k: i for i, k in enumerate(self.config_keys)
        }
        rows: List[int] = []
        cols: List[int] = []
        flat: List[float] = []
        lengths: List[int] = []
        for test, key, times in cells:
            rows.append(self.test_index[test])
            cols.append(self.config_index[key])
            lengths.append(len(times))
            flat.extend(times)
        shape = (len(self.tests), len(self.configs))
        t_ids = np.array(rows, dtype=np.intp)
        c_ids = np.array(cols, dtype=np.intp)
        n = np.array(lengths, dtype=np.intp)
        counts = np.zeros(shape, dtype=np.int64)
        counts[t_ids, c_ids] = n
        data = np.full(shape + (max(lengths, default=1),), np.nan)
        rep = np.arange(len(flat)) - np.repeat(np.cumsum(n) - n, n)
        data[np.repeat(t_ids, n), np.repeat(c_ids, n), rep] = flat
        self.times = data
        self.counts = counts
        self.medians = _medians(data, counts)

    @property
    def present(self) -> np.ndarray:
        """Boolean ``tests × configs`` mask of measured cells."""
        return self.counts > 0

    def test_ids(self, tests: Iterable) -> np.ndarray:
        """Integer ids of ``tests`` (each must be on the test axis)."""
        index = self.test_index
        return np.fromiter((index[t] for t in tests), dtype=np.intp)

    def config_id(self, config: OptConfig) -> Optional[int]:
        """The id of ``config``, or ``None`` if no cell uses it."""
        return self.config_index.get(config.key())

    def oracle_ids(self) -> np.ndarray:
        """Per test, the id of the lowest-median measured configuration.

        Ties go to the lowest id (the first in dataset order, as
        :meth:`~repro.study.dataset.PerfDataset.best_config` picks);
        a test with no measurements at all gets -1.
        """
        if not self.configs:
            return np.full(len(self.tests), -1, dtype=np.intp)
        ranked = np.where(self.present, self.medians, np.inf)
        best = np.argmin(ranked, axis=1)
        return np.where(self.present.any(axis=1), best, -1)


def _medians(data: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cell medians of NaN-padded rows holding ``counts`` values."""
    ordered = np.sort(data, axis=-1)  # NaN padding sorts last
    lo = (np.maximum(counts, 1) - 1) // 2
    hi = counts // 2
    low = np.take_along_axis(ordered, lo[..., None], axis=-1)[..., 0]
    high = np.take_along_axis(ordered, hi[..., None], axis=-1)[..., 0]
    medians = np.where(lo == hi, low, (low + high) / 2.0)
    # A hole, or a NaN timing beyond the padding (as numpy.median).
    nan_timings = np.isnan(data).sum(axis=-1) > data.shape[-1] - counts
    medians[(counts == 0) | nan_timings] = np.nan
    return medians
