"""Greedy first-fit coloring in non-increasing length order.

This is *the* scheduling algorithm of the paper (Theorem 1 / Appendix
A): process links longest-first and give each the smallest color unused
by its already-colored conflict-graph neighbours.  Because ``G_f`` has
constant inductive independence, this is a constant-factor
approximation of the chromatic number [27].
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.conflict.graph import ConflictGraph
from repro.errors import ScheduleError
from repro.util.ordering import argsort_by_length_nonincreasing

__all__ = ["greedy_coloring", "greedy_coloring_by_order"]


def greedy_coloring_by_order(graph: ConflictGraph, order: Sequence[int]) -> np.ndarray:
    """First-fit coloring of ``graph`` along an explicit vertex order.

    Returns a color array (0-based) aligned with link indices.
    """
    order = np.asarray(order, dtype=int)
    n = graph.n
    if sorted(order.tolist()) != list(range(n)):
        raise ScheduleError("order must be a permutation of the vertices")
    colors = np.full(n, -1, dtype=int)
    # graph.neighbors slices the CSR rows: no n x n matrix is built.
    for v in order:
        used = set(colors[u] for u in graph.neighbors(v) if colors[u] >= 0)
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def greedy_coloring(graph: ConflictGraph) -> np.ndarray:
    """First-fit coloring in non-increasing link-length order.

    The length ordering is what the constant-approximation guarantee
    relies on; ties are broken by link index for determinism.
    """
    order = argsort_by_length_nonincreasing(graph.links.lengths)
    return greedy_coloring_by_order(graph, order)
