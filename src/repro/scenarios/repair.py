"""Incremental aggregation-tree repair for dynamic scenarios.

When nodes churn, the previous epoch's tree is not discarded: edges
whose endpoints both survive are *kept*, and the resulting spanning
forest is completed into a spanning tree by adding minimum-length
reconnection edges (Kruskal restricted to inter-component pairs — the
optimal completion of the forced forest).  The number of added edges is
the **repair cost**, the re-matching metric the Hall-type dynamic
matching results motivate: how much of the certified structure survives
a perturbation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import PointSet
from repro.spanning.mst import (
    Candidates,
    _delaunay_candidate_edges,
    _kruskal,
    check_edge_endpoints,
    edge_lengths,
)
from repro.spanning.tree import AggregationTree
from repro.util.unionfind import UnionFind

__all__ = ["complete_forest", "edge_ids", "map_edges_by_id", "repair_tree"]

Edge = Tuple[int, int]

#: Below this size the dense all-pairs candidate list is cheapest.
_DENSE_CANDIDATE_LIMIT = 256


def edge_ids(edges: Iterable[Edge], node_ids: Sequence[int]) -> FrozenSet[FrozenSet[int]]:
    """Index-pair edges as a set of persistent-identity pairs."""
    ids = np.asarray(node_ids, dtype=int)
    return frozenset(frozenset((int(ids[u]), int(ids[v]))) for u, v in edges)


def map_edges_by_id(
    edge_id_pairs: Iterable[FrozenSet[int]],
    node_ids: Sequence[int],
    *,
    require_all: bool = False,
) -> List[Edge]:
    """Identity-pair edges back to index pairs under ``node_ids``.

    The inverse of :func:`edge_ids` for a (possibly different) epoch's
    deployment.  Edges with a missing endpoint are dropped — the
    surviving-edge filter of tree repair — unless ``require_all`` is
    set (the reuse policy, where every id must still be present).
    """
    index_of: Dict[int, int] = {int(i): k for k, i in enumerate(node_ids)}
    out: List[Edge] = []
    for pair in edge_id_pairs:
        a, b = tuple(pair)
        if a in index_of and b in index_of:
            out.append((index_of[a], index_of[b]))
        elif require_all:
            missing = a if a not in index_of else b
            raise GeometryError(f"edge endpoint id {missing} missing from node_ids")
    return out


def _dense_candidates(coords: np.ndarray) -> Candidates:
    """All pairs with their distances (small instances / fallback)."""
    n = coords.shape[0]
    iu, iv = np.triu_indices(n, k=1)
    dist = np.linalg.norm(coords[iu] - coords[iv], axis=1)
    return np.column_stack((iu, iv)).astype(np.int64), dist


def _candidate_edges(points: PointSet) -> Optional[Candidates]:
    """A sparse candidate superset of every reconnection edge, as
    ``(pairs, weights)`` arrays.

    The lightest edge crossing *any* cut of a Euclidean pointset is a
    Gabriel (hence Delaunay) edge — a point inside the diametral disk
    would yield a shorter crossing edge — so Kruskal completion only
    needs Delaunay candidates in the plane, and consecutive sorted
    neighbours on the line.  ``None`` when no sparse structure applies
    (higher dimensions, degenerate triangulations, missing scipy).
    """
    if points.is_line_instance:
        coords = np.asarray(points.coords, dtype=float)
        order = np.argsort(coords[:, 0], kind="stable")
        pairs = np.column_stack((order[:-1], order[1:])).astype(np.int64)
        return pairs, edge_lengths(coords, pairs)
    return _delaunay_candidate_edges(points)


def complete_forest(points: PointSet, forced: Sequence[Edge]) -> List[Edge]:
    """A minimum spanning tree *containing* the forced forest.

    The forced edges are unioned first; the remaining components are
    then merged greedily by Euclidean edge length (Kruskal restricted
    to sparse candidate edges — Delaunay in the plane, sorted
    neighbours on the line, all pairs only for small or degenerate
    instances), which is the optimal way to complete a forced forest
    into a spanning tree.  Candidates inside one forced component are
    dropped before sorting: Kruskal would reject each of them wherever
    it sat in the order.  Raises :class:`GeometryError` if ``forced``
    already contains a cycle or names a node outside ``0..n-1``.
    """
    n = len(points)
    forced_pairs = np.asarray(forced, dtype=np.int64).reshape(len(forced), 2)
    check_edge_endpoints(forced_pairs, n)
    uf = UnionFind(n)
    edges = list(map(tuple, forced_pairs.tolist()))
    for u, v in edges:
        if not uf.union(u, v):
            raise GeometryError(f"forced edges contain a cycle at ({u}, {v})")
    if uf.component_count == 1 or n <= 1:
        return edges
    candidates = None
    if n > _DENSE_CANDIDATE_LIMIT:
        candidates = _candidate_edges(points)
    if candidates is None:
        candidates = _dense_candidates(np.asarray(points.coords, dtype=float))
    pairs, weights = candidates
    root = np.array([uf.find(x) for x in range(n)])
    crossing = root[pairs[:, 0]] != root[pairs[:, 1]]
    edges += _kruskal(uf, pairs[crossing], weights[crossing])
    if uf.component_count != 1:  # pragma: no cover - distinct points only
        raise GeometryError("failed to reconnect the forest")
    return edges


def repair_tree(
    points: PointSet,
    node_ids: Sequence[int],
    previous_edges: FrozenSet[FrozenSet[int]],
    sink: int,
) -> AggregationTree:
    """Repair the previous epoch's tree onto a churned deployment.

    Edges whose endpoints both survive (matched by persistent id) are
    kept; the forest is completed with minimum reconnection edges.  The
    *repair cost* is not returned — it has exactly one definition,
    ``edge_ids(new) - previous_edges`` (edges present now that were not
    before), computed by the
    :class:`~repro.scenarios.runner.ScenarioRunner`, which must derive
    it that way regardless of whether the tree was freshly repaired or
    resolved from a store tier.

    Parameters
    ----------
    points, node_ids:
        This epoch's deployment and the persistent identity of each
        point.
    previous_edges:
        The previous tree's edges as identity pairs
        (:func:`edge_ids`).
    sink:
        This epoch's sink index.
    """
    kept = map_edges_by_id(previous_edges, node_ids)
    return AggregationTree(points, complete_forest(points, kept), sink=sink)
