"""Shared infrastructure for the experiment modules.

Each experiment module regenerates one table or figure of the paper
from a :class:`~repro.study.dataset.PerfDataset`.  The full study is
deterministic but takes a couple of minutes, so this module provides a
process-level cache backed by an on-disk artifact.

Resolution order for :func:`default_dataset`:

1. the in-process cache;
2. the path in ``$REPRO_DATASET``, if set;
3. ``.cache/dataset-default.json.gz`` under the repository root (or
   the current directory);
4. a fresh :func:`~repro.study.runner.run_study` run, saved to (3).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from ..core.algorithm1 import Analysis
from ..core.strategies import Strategy, build_strategies
from ..errors import DatasetError
from ..study.audit import DatasetAudit, audit_dataset
from ..study.dataset import PerfDataset
from ..study.runner import StudyConfig, run_study

__all__ = [
    "default_dataset",
    "default_analysis",
    "default_strategies",
    "default_audit",
    "coverage_footnote",
    "cache_path",
    "reset_cache",
]

_CACHE: Dict[str, object] = {}

_DATASET_ENV = "REPRO_DATASET"
_DEFAULT_RELATIVE = os.path.join(".cache", "dataset-default.json.gz")


def cache_path() -> str:
    """Where the default dataset artifact lives on disk."""
    env = os.environ.get(_DATASET_ENV)
    if env:
        return env
    # Prefer the repository root (two levels above this package's
    # ``src`` directory) when running from a source checkout.
    here = os.path.dirname(os.path.abspath(__file__))
    for base in (os.path.abspath(os.path.join(here, *[os.pardir] * 3)), os.getcwd()):
        candidate = os.path.join(base, _DEFAULT_RELATIVE)
        if os.path.exists(candidate) or os.path.isdir(os.path.dirname(candidate)):
            return candidate
    return os.path.join(os.getcwd(), _DEFAULT_RELATIVE)


def _load_audited(path: str, rebuildable: bool) -> Optional[DatasetAudit]:
    """Load and audit the artifact at ``path``; ``None`` forces a rebuild.

    ``rebuildable`` marks artifacts this module owns (the on-disk
    cache): those are rebuilt when they fail to load — untagged legacy
    files included — or contain quarantined cells.  An explicit
    ``$REPRO_DATASET`` is never silently replaced — a degraded dataset
    there is the point (partial analysis), so bad cells are quarantined
    and the cleaned dataset is used; only an unloadable file raises.
    """
    try:
        dataset = PerfDataset.load(path)
    except DatasetError:
        if rebuildable:
            return None
        raise
    audit = audit_dataset(dataset)
    if rebuildable and audit.quarantined:
        return None
    return audit


def default_dataset(rebuild: bool = False) -> PerfDataset:
    """The full-factorial study dataset (cached in process and on disk).

    Loaded artifacts are audited: bad cells are quarantined, and a
    cache artifact that fails the audit (or predates the current
    ``perf-dataset-v2`` format) is rebuilt rather than crashing a later
    analysis.  The audit is cached alongside the dataset — see
    :func:`default_audit` and :func:`coverage_footnote`.
    """
    if not rebuild and "dataset" in _CACHE:
        return _CACHE["dataset"]  # type: ignore[return-value]
    path = cache_path()
    explicit = bool(os.environ.get(_DATASET_ENV))
    audit = None
    if not rebuild and os.path.exists(path):
        audit = _load_audited(path, rebuildable=not explicit)
    if audit is None:
        dataset = run_study(StudyConfig())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        dataset.save(path)
        audit = audit_dataset(dataset)
    _CACHE["dataset"] = audit.dataset
    _CACHE["audit"] = audit
    return audit.dataset


def default_audit() -> DatasetAudit:
    """The audit of the default dataset (cached with it)."""
    if "audit" not in _CACHE:
        default_dataset()
    return _CACHE["audit"]  # type: ignore[return-value]


def coverage_footnote(dataset: Optional[PerfDataset] = None) -> str:
    """A table/figure footnote for degraded datasets, else ``""``.

    With no argument, describes the default dataset's audit coverage.
    Given a dataset, computes its own-grid coverage.  Complete coverage
    yields the empty string, so full runs render byte-identically to
    the committed goldens.
    """
    coverage = (
        dataset.coverage() if dataset is not None else default_audit().coverage
    )
    if coverage.complete:
        return ""
    return f"\nnote: derived from {coverage.describe()}"


def default_analysis() -> Analysis:
    """Algorithm 1 over the default dataset (cached)."""
    if "analysis" not in _CACHE:
        _CACHE["analysis"] = Analysis(default_dataset())
    return _CACHE["analysis"]  # type: ignore[return-value]


def default_strategies() -> Dict[str, Strategy]:
    """All Table V strategies over the default dataset (cached)."""
    if "strategies" not in _CACHE:
        _CACHE["strategies"] = build_strategies(
            default_dataset(), default_analysis()
        )
    return _CACHE["strategies"]  # type: ignore[return-value]


def reset_cache() -> None:
    """Drop the in-process caches (tests use this)."""
    _CACHE.clear()
