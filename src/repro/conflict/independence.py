"""Inductive independence of conflict graphs (Appendix A, [27]).

``G_f`` has *constant inductive independence*: for every link ``i``,
any independent subset of the longer-or-equal neighbours ``N+_i`` has
bounded cardinality.  That constant is what makes greedy first-fit a
constant-factor coloring approximation.  This module measures it.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.conflict.graph import ConflictGraph

__all__ = ["inductive_independence_number"]


def _greedy_independent_size(neighbours: List[Set[int]], candidates: np.ndarray) -> int:
    """Size of a maximal independent set grown greedily over candidates."""
    chosen: list[int] = []
    for v in candidates.tolist():
        if not any(u in neighbours[v] for u in chosen):
            chosen.append(v)
    return len(chosen)


def inductive_independence_number(graph: ConflictGraph, *, exact_limit: int = 16) -> int:
    """Measured inductive independence of a conflict graph.

    For each vertex ``i``, considers the neighbours that are not shorter
    than ``i`` and computes the largest independent set among them —
    exactly when the neighbourhood is small (``<= exact_limit``),
    greedily (a lower bound) otherwise.  Returns the maximum over ``i``,
    reading neighbour sets built once from the CSR arrays.
    """
    lengths = graph.links.lengths
    cols, bounds = graph.indices.tolist(), graph.indptr.tolist()
    neighbours = [set(cols[a:b]) for a, b in zip(bounds, bounds[1:])]
    worst = 0
    for i in range(graph.n):
        nbrs = graph.neighbors(i)
        nbrs = nbrs[lengths[nbrs] >= lengths[i]]
        if nbrs.size == 0:
            continue
        if nbrs.size <= exact_limit:
            worst = max(worst, _exact_independent_size(neighbours, nbrs))
        else:
            worst = max(worst, _greedy_independent_size(neighbours, nbrs))
    return worst


def _exact_independent_size(neighbours: List[Set[int]], vertices: np.ndarray) -> int:
    """Exact maximum independent set by branch and bound on few vertices."""

    def recurse(remaining: list[int]) -> int:
        if not remaining:
            return 0
        v, rest = remaining[0], remaining[1:]
        # Branch 1: skip v.
        best = recurse(rest)
        # Branch 2: take v, drop its neighbours.
        kept = [u for u in rest if u not in neighbours[v]]
        best = max(best, 1 + recurse(kept))
        return best

    return recurse(vertices.tolist())
