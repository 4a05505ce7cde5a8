"""The per-edge tree loops: the references for the array Kruskal core
of :mod:`repro.spanning.mst` and the forest completion of
:mod:`repro.scenarios.repair`.

All are the earlier code, kept verbatim:

* :func:`delaunay_candidate_edges` builds the Delaunay candidates as a
  sorted set of index pairs, one ``np.linalg.norm`` call per edge;
* :func:`mst_edges_kruskal` is the ``(weight, index)``-ordered Kruskal
  loop over weighted triples;
* :func:`complete_forest` (with its candidate builders
  :func:`candidate_edges` and :func:`dense_candidates`) unions the
  forced edges and walks every candidate, sorted by weight.

``tests/test_tree_differential.py`` asserts that the array paths
return the same edge lists, element by element: tree edge order is
persisted by the disk tier.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import PointSet
from repro.util.unionfind import UnionFind

Edge = Tuple[int, int]

#: Below this size the dense all-pairs candidate list is cheapest.
_DENSE_CANDIDATE_LIMIT = 256


def mst_edges_kruskal(
    n: int, edges: Sequence[Tuple[int, int, float]]
) -> List[Edge]:
    """Kruskal over an explicit weighted edge list.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Triples ``(u, v, weight)``.

    Raises :class:`GeometryError` if the edge list does not connect all
    ``n`` nodes.
    """
    order = sorted(range(len(edges)), key=lambda k: (edges[k][2], k))
    uf = UnionFind(n)
    result: List[Edge] = []
    for k in order:
        u, v, _w = edges[k]
        if uf.union(int(u), int(v)):
            result.append((int(u), int(v)))
            if len(result) == n - 1:
                return result
    if n == 1:
        return []
    raise GeometryError(
        f"edge list spans only {n - uf.component_count + 1} merges; graph is disconnected"
    )


def delaunay_candidate_edges(points: PointSet) -> Optional[List[Tuple[int, int, float]]]:
    """Candidate edge list from the Delaunay triangulation (contains the
    Euclidean MST).  Returns ``None`` when scipy is unavailable or the
    triangulation is degenerate (collinear inputs)."""
    if points.dimension != 2:
        return None
    try:
        from scipy.spatial import Delaunay  # type: ignore
    except ImportError:  # pragma: no cover - only CI's scipy-free 3.10 leg
        return None
    try:
        tri = Delaunay(points.coords)
    except Exception:
        return None
    pairs = set()
    for simplex in tri.simplices:
        for a in range(3):
            for b in range(a + 1, 3):
                u, v = int(simplex[a]), int(simplex[b])
                pairs.add((min(u, v), max(u, v)))
    coords = points.coords
    return [
        (u, v, float(np.linalg.norm(coords[u] - coords[v]))) for (u, v) in sorted(pairs)
    ]


def dense_candidates(coords: np.ndarray) -> List[Tuple[int, int, float]]:
    """All pairs with their distances (small instances / fallback)."""
    n = coords.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    dist = np.linalg.norm(coords[iu] - coords[iv], axis=1)
    return [(int(u), int(v), float(w)) for u, v, w in zip(iu, iv, dist)]


def candidate_edges(points: PointSet) -> Optional[List[Tuple[int, int, float]]]:
    """A sparse candidate superset of every reconnection edge."""
    coords = np.asarray(points.coords, dtype=float)
    if points.is_line_instance:
        order = np.argsort(coords[:, 0], kind="stable")
        return [
            (
                int(order[k]),
                int(order[k + 1]),
                float(np.linalg.norm(coords[order[k + 1]] - coords[order[k]])),
            )
            for k in range(len(points) - 1)
        ]
    return delaunay_candidate_edges(points)


def complete_forest(points: PointSet, forced: Sequence[Edge]) -> List[Edge]:
    """A minimum spanning tree *containing* the forced forest."""
    n = len(points)
    uf = UnionFind(n)
    edges = [(int(u), int(v)) for u, v in forced]
    for u, v in edges:
        if not uf.union(u, v):
            raise GeometryError(f"forced edges contain a cycle at ({u}, {v})")
    if uf.component_count == 1 or n <= 1:
        return edges
    coords = np.asarray(points.coords, dtype=float)
    candidates = None
    if n > _DENSE_CANDIDATE_LIMIT:
        candidates = candidate_edges(points)
    if candidates is None:
        candidates = dense_candidates(coords)
    for u, v, _w in sorted(candidates, key=lambda e: e[2]):
        if uf.union(u, v):
            edges.append((u, v))
            if uf.component_count == 1:
                break
    if uf.component_count != 1:  # pragma: no cover - distinct points only
        raise GeometryError("failed to reconnect the forest")
    return edges
