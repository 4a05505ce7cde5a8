"""Minimum spanning trees of pointsets.

Three implementations, selected automatically by :func:`mst_edges`:

* ``line``:    exact 1-D specialisation — sort and connect neighbours
  (the unique MST on the line, as Section 4.2 uses);
* ``prim``:    dense ``O(n^2)`` Prim over the full distance matrix —
  the general workhorse, correct in any dimension;
* ``kruskal``: union-find Kruskal over candidate edges held as an
  ``(m, 2)`` int64 pair array and a float64 weight array — used for
  reduced graphs (power-limited deployments), by the Delaunay
  acceleration when scipy is importable, and by the forest completion
  of :mod:`repro.scenarios.repair`.  One loop, :func:`_kruskal`, serves
  all of them.

Delaunay candidates are built without a per-edge Python loop: the
three vertex pairs of every simplex, deduplicated on a packed
``u * n + v`` key (lexicographic order), with lengths from one batched
``d @ d`` product — bit-identical to a per-edge ``np.linalg.norm``,
which a one-ulp change could turn into a different Kruskal tie-break.

Ties between equal-weight edges are broken deterministically by index,
so repeated runs produce identical trees.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import PointSet
from repro.util.unionfind import UnionFind

__all__ = [
    "mst_edges",
    "mst_edges_prim",
    "mst_edges_kruskal",
    "line_mst_edges",
]

Edge = Tuple[int, int]
#: Candidate edges: int64 ``(m, 2)`` endpoint pairs and float64 weights.
Candidates = Tuple[np.ndarray, np.ndarray]


def mst_edges_prim(points: PointSet) -> List[Edge]:
    """Dense Prim: ``O(n^2)`` time, ``O(n^2)`` space. Any dimension."""
    n = len(points)
    if n == 1:
        return []
    dm = points.distance_matrix()
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_from = np.full(n, -1, dtype=int)
    in_tree[0] = True
    best_dist[:] = dm[0]
    best_from[:] = 0
    best_dist[0] = np.inf
    edges: List[Edge] = []
    for _ in range(n - 1):
        nxt = int(np.argmin(best_dist))
        if not np.isfinite(best_dist[nxt]):
            raise GeometryError("point set is disconnected (non-finite distances)")
        edges.append((int(best_from[nxt]), nxt))
        in_tree[nxt] = True
        best_dist[nxt] = np.inf
        improve = (dm[nxt] < best_dist) & ~in_tree
        best_dist[improve] = dm[nxt][improve]
        best_from[improve] = nxt
    return edges


def check_edge_endpoints(pairs: np.ndarray, n: int) -> None:
    """Raise :class:`GeometryError` naming the first row of the
    ``(m, 2)`` pair array with an endpoint outside ``0..n-1``.

    Negative indices would otherwise wrap around in list and array
    indexing, silently joining the last node.
    """
    bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        u, v = pairs[int(np.argmax(bad))].tolist()
        raise GeometryError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")


def _kruskal(uf: UnionFind, pairs: np.ndarray, weights: np.ndarray) -> List[Edge]:
    """Kruskal's loop: the edges of ``pairs`` that merge two components
    of ``uf``, walked by ascending weight with ties by index, until one
    component is left.  ``uf`` is updated in place."""
    check_edge_endpoints(pairs, len(uf))
    added: List[Edge] = []
    for u, v in pairs[np.argsort(weights, kind="stable")].tolist():
        if uf.union(u, v):
            added.append((u, v))
            if uf.component_count == 1:
                break
    return added


def _spanning_kruskal(n: int, pairs: np.ndarray, weights: np.ndarray) -> List[Edge]:
    """Kruskal MST of ``n`` nodes over the candidate arrays."""
    uf = UnionFind(n)
    edges = _kruskal(uf, pairs, weights)
    if uf.component_count == 1:
        return edges
    raise GeometryError(
        f"edge list spans only {n - uf.component_count + 1} merges; graph is disconnected"
    )


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
    ``n`` nodes or names a node outside ``0..n-1``.
    """
    table = np.asarray(edges, dtype=float).reshape(len(edges), 3)
    return _spanning_kruskal(n, table[:, :2].astype(np.int64), table[:, 2])


def line_mst_edges(points: PointSet) -> List[Edge]:
    """Exact MST of a 1-D instance: connect sorted neighbours.

    For points on the line the MST is unique (generic positions) and
    consists of all consecutive pairs — the structure Sections 4 and 5
    reason about.
    """
    if not points.is_line_instance:
        raise GeometryError("line_mst_edges requires a collinear instance")
    order = np.argsort(points.coords[:, 0], kind="stable")
    return [(int(order[k]), int(order[k + 1])) for k in range(len(points) - 1)]


def edge_lengths(coords: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Euclidean length of every ``(u, v)`` row of ``pairs``.

    One batched ``d @ d`` product: equal, bit for bit, to
    ``np.linalg.norm(coords[u] - coords[v])`` per edge, where
    ``norm(axis=1)``, ``einsum`` and ``hypot`` each differ from it in
    the last bit on some edges.
    """
    d = coords[pairs[:, 0]] - coords[pairs[:, 1]]
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _delaunay_candidate_edges(points: PointSet) -> Optional[Candidates]:
    """Candidate edges from the Delaunay triangulation (contains the
    Euclidean MST) as ``(pairs, weights)``: int64 ``(m, 2)`` rows
    ``u < v`` in lexicographic order, and their float64 lengths.
    Returns ``None`` when scipy is unavailable or the triangulation is
    degenerate (collinear inputs)."""
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
    n = len(points)
    simplices = tri.simplices.astype(np.int64)
    sides = np.concatenate([simplices[:, [0, 1]], simplices[:, [0, 2]], simplices[:, [1, 2]]])
    sides.sort(axis=1)
    keys = np.unique(sides[:, 0] * n + sides[:, 1])
    pairs = np.column_stack((keys // n, keys % n))
    return pairs, edge_lengths(np.asarray(points.coords, dtype=float), pairs)


def mst_edges(points: PointSet, *, method: str = "auto") -> List[Edge]:
    """MST edges of a pointset as ``(u, v)`` index pairs.

    ``method``:

    * ``"auto"`` — 1-D exact for line instances, Delaunay+Kruskal for
      large planar sets when scipy is available, dense Prim otherwise;
    * ``"prim"``, ``"kruskal-delaunay"``, ``"line"`` — force a method.
    """
    n = len(points)
    if n == 1:
        return []
    if method == "line" or (method == "auto" and points.is_line_instance):
        if points.is_line_instance:
            return line_mst_edges(points)
        raise GeometryError("method='line' requires a collinear instance")
    if method in ("auto", "kruskal-delaunay") and n >= 512:
        candidates = _delaunay_candidate_edges(points)
        if candidates is not None:
            return _spanning_kruskal(n, *candidates)
        if method == "kruskal-delaunay":
            raise GeometryError("Delaunay path unavailable (scipy missing or degenerate)")
    if method == "kruskal-delaunay":
        candidates = _delaunay_candidate_edges(points)
        if candidates is None:
            raise GeometryError("Delaunay path unavailable (scipy missing or degenerate)")
        return _spanning_kruskal(n, *candidates)
    if method not in ("auto", "prim"):
        raise GeometryError(
            f"unknown MST method {method!r}; valid methods: auto, prim, "
            f"kruskal-delaunay"
        )
    return mst_edges_prim(points)


def total_weight(points: PointSet, edges: Sequence[Edge]) -> float:
    """Sum of edge lengths — used by tests to compare MST variants."""
    return float(sum(points.distance(u, v) for u, v in edges))
