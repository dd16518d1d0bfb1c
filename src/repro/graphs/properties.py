"""Structural property analysis for study inputs.

The paper's performance narrative hinges on a few structural features
of the input graph: diameter (number of data-dependent kernel
iterations, which drives ``oitergb``), degree distribution skew (load
imbalance, which drives the nested-parallelism schemes) and average
degree.  This module computes those features so that the synthetic
inputs can be validated against the classes they stand in for
(Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util import expand_segments, unique_ids
from .csr import CSRGraph

__all__ = [
    "GraphProperties",
    "analyze",
    "bfs_levels",
    "estimate_diameter",
    "degree_cv",
    "degree_gini",
]


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Return the BFS level of every node from ``source`` (-1: unreached).

    Vectorised frontier-at-a-time BFS; this is the reference CPU
    implementation reused by the application validators.
    """
    levels = np.full(graph.n_nodes, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    row_ptr, col_idx = graph.row_ptr, graph.col_idx
    while frontier.size:
        starts = row_ptr[frontier]
        counts = row_ptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Gather all out-neighbours of the frontier in one shot.
        neighbours = col_idx[expand_segments(starts, counts)]
        fresh = unique_ids(neighbours[levels[neighbours] < 0], graph.n_nodes)
        level += 1
        levels[fresh] = level
        frontier = fresh
    return levels


def estimate_diameter(graph: CSRGraph, n_samples: int = 4, seed: int = 0) -> int:
    """Estimate graph (pseudo-)diameter by repeated farthest-node BFS.

    Starts from a random node, runs BFS, hops to the farthest reached
    node and repeats — the classic double-sweep lower bound.  Exact for
    trees; a tight lower bound in practice for road networks.
    """
    if graph.n_nodes == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    start = int(rng.integers(graph.n_nodes))
    for _ in range(max(1, n_samples)):
        levels = bfs_levels(graph, start)
        reached = levels >= 0
        ecc = int(levels[reached].max()) if reached.any() else 0
        if ecc <= best and _ > 0:
            break
        best = max(best, ecc)
        farthest = np.flatnonzero(levels == ecc)
        start = int(farthest[0]) if farthest.size else int(rng.integers(graph.n_nodes))
    return best


def degree_cv(graph: CSRGraph) -> float:
    """Coefficient of variation of the out-degree distribution.

    Near 0 for road/uniform graphs; well above 1 for power-law graphs.
    This is the load-imbalance signal the nested-parallelism
    optimisations respond to.
    """
    deg = graph.out_degrees().astype(np.float64)
    mean = deg.mean() if deg.size else 0.0
    if mean == 0:
        return 0.0
    return float(deg.std() / mean)


def degree_gini(graph: CSRGraph) -> float:
    """Gini coefficient of the out-degree distribution in [0, 1]."""
    deg = np.sort(graph.out_degrees().astype(np.float64))
    n = deg.size
    total = deg.sum()
    if n == 0 or total == 0:
        return 0.0
    cum = np.cumsum(deg)
    return float((n + 1 - 2 * (cum / total).sum()) / n)


@dataclass(frozen=True)
class GraphProperties:
    """Summary of the structural features relevant to the study."""

    name: str
    n_nodes: int
    n_edges: int
    avg_degree: float
    max_degree: int
    degree_cv: float
    degree_gini: float
    est_diameter: int

    @property
    def is_high_diameter(self) -> bool:
        """True for road-network-like inputs (diameter >> log n)."""
        return self.est_diameter > 4 * max(1.0, np.log2(max(self.n_nodes, 2)))

    @property
    def is_power_law(self) -> bool:
        """True for social-network-like inputs (heavy degree skew)."""
        return self.degree_cv > 1.0

    def classify(self) -> str:
        """Classify into the paper's three input classes."""
        if self.is_high_diameter:
            return "road"
        if self.is_power_law:
            return "social"
        return "random"


def analyze(graph: CSRGraph, seed: int = 0) -> GraphProperties:
    """Compute the :class:`GraphProperties` summary of ``graph``."""
    deg = graph.out_degrees()
    return GraphProperties(
        name=graph.name,
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        avg_degree=float(deg.mean()) if deg.size else 0.0,
        max_degree=int(deg.max()) if deg.size else 0,
        degree_cv=degree_cv(graph),
        degree_gini=degree_gini(graph),
        est_diameter=estimate_diameter(graph, seed=seed),
    )
