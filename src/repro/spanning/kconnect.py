"""k-edge-connected aggregation structures (Remark 2).

The paper notes the MST result extends to stronger connectivity: [11]
constructs a k-edge-connected spanning subgraph for which the Lemma-1
sparsity bound degrades to ``O(k^4)``.  This module builds the standard
iterated-MST approximation (union of k successive edge-disjoint MSTs)
and measures its sparsity so the Remark is quantifiable.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.errors import GeometryError
from repro.geometry.point import PointSet
from repro.links.linkset import LinkSet
from repro.sinr.affectance import mst_sparsity_bound
from repro.spanning.mst import mst_edges_kruskal

__all__ = ["k_connected_edges", "k_connected_links", "edge_connectivity"]

Edge = Tuple[int, int]


def k_connected_edges(points: PointSet, k: int) -> List[Edge]:
    """Union of ``k`` successive edge-disjoint MSTs.

    For ``k = 1`` this is the MST; for larger ``k`` the union is a
    classic 2-approximate k-edge-connected spanning subgraph on metric
    weights (each round adds the cheapest augmentation forest).
    """
    n = len(points)
    if k < 1:
        raise GeometryError(f"k must be at least 1, got {k}")
    if k >= n:
        raise GeometryError(f"k={k} needs at least k+1={k + 1} nodes, got {n}")
    dm = points.distance_matrix()
    chosen: Set[Edge] = set()
    for _round in range(k):
        available = [
            (i, j, float(dm[i, j]))
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in chosen
        ]
        try:
            tree = mst_edges_kruskal(n, available)
        except GeometryError as exc:
            raise GeometryError(
                f"cannot build {k} edge-disjoint spanning trees on {n} nodes"
            ) from exc
        chosen.update((min(u, v), max(u, v)) for u, v in tree)
    return sorted(chosen)


def k_connected_links(points: PointSet, k: int) -> LinkSet:
    """The k-connected structure as (arbitrarily oriented) links."""
    return LinkSet.from_pointset_edges(points, k_connected_edges(points, k))


def edge_connectivity(n: int, edges: List[Edge]) -> int:
    """Exact edge connectivity of the structure (networkx mincut)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    if not nx.is_connected(g):
        return 0
    return nx.edge_connectivity(g)


def sparsity_vs_k(points: PointSet, alpha: float, max_k: int) -> List[Tuple[int, float]]:
    """Measured Lemma-1 sparsity of the k-connected structure for
    ``k = 1..max_k`` — the Remark-2 curve (paper: grows like poly(k),
    bounded by O(k^4))."""
    rows = []
    for k in range(1, max_k + 1):
        links = k_connected_links(points, k)
        rows.append((k, mst_sparsity_bound(links, alpha)))
    return rows
