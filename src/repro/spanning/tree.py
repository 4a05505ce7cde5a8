"""Oriented aggregation trees.

An :class:`AggregationTree` is a spanning tree of a pointset rooted at
the sink, with every edge directed toward the root (child -> parent):
the convergecast orientation.  It owns the mapping between tree edges
and the :class:`~repro.links.LinkSet` the scheduling layer consumes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import PointSet
from repro.links.linkset import LinkSet
from repro.spanning.mst import check_edge_endpoints, mst_edges

__all__ = ["AggregationTree"]

Edge = Tuple[int, int]


class AggregationTree:
    """A rooted spanning tree with convergecast-oriented links.

    Parameters
    ----------
    points:
        The underlying deployment.
    edges:
        Undirected spanning edges as index pairs.
    sink:
        Root node index (default 0).
    """

    def __init__(self, points: PointSet, edges: Sequence[Edge], sink: int = 0) -> None:
        n = len(points)
        if not 0 <= sink < n:
            raise GeometryError(f"sink {sink} out of range for {n} points")
        if n > 1 and len(edges) != n - 1:
            raise GeometryError(f"a spanning tree on {n} nodes needs {n - 1} edges, got {len(edges)}")
        self.points = points
        self.sink = int(sink)
        self._edges = [(int(u), int(v)) for u, v in edges]
        check_edge_endpoints(np.array(self._edges, dtype=np.int64).reshape(-1, 2), n)
        self._parent, self._order = self._orient()
        self._links: Optional[LinkSet] = None

    # ------------------------------------------------------------------
    @classmethod
    def mst(cls, points: PointSet, sink: int = 0, *, method: str = "auto") -> "AggregationTree":
        """The paper's tree of choice: the Euclidean MST, rooted at the sink."""
        return cls(points, mst_edges(points, method=method), sink=sink)

    def _orient(self) -> Tuple[np.ndarray, List[int]]:
        """BFS from the sink; returns parent array and a BFS order."""
        n = len(self.points)
        adjacency: Dict[int, List[int]] = {i: [] for i in range(n)}
        for u, v in self._edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        parent = np.full(n, -1, dtype=int)
        seen = np.zeros(n, dtype=bool)
        seen[self.sink] = True
        order = [self.sink]
        queue = deque([self.sink])
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    parent[nxt] = node
                    order.append(nxt)
                    queue.append(nxt)
        if not seen.all():
            raise GeometryError("edges do not span the pointset (disconnected)")
        return parent, order

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def edges(self) -> List[Edge]:
        """The undirected edge list as given."""
        return list(self._edges)

    @property
    def parent(self) -> np.ndarray:
        """``parent[v]`` is ``v``'s parent toward the sink (−1 at the sink)."""
        return self._parent

    def children(self) -> Dict[int, List[int]]:
        """Mapping node -> children (away from the sink)."""
        kids: Dict[int, List[int]] = {i: [] for i in range(len(self.points))}
        for v, p in enumerate(self._parent):
            if p >= 0:
                kids[int(p)].append(v)
        return kids

    def depth(self) -> np.ndarray:
        """Hop distance of every node from the sink."""
        depth = np.zeros(len(self.points), dtype=int)
        for node in self._order[1:]:
            depth[node] = depth[self._parent[node]] + 1
        return depth

    def height(self) -> int:
        """Maximum node depth."""
        return int(self.depth().max()) if len(self.points) > 1 else 0

    def bfs_order(self) -> List[int]:
        """Nodes in BFS order from the sink (sink first)."""
        return list(self._order)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def links(self) -> LinkSet:
        """The convergecast link set: one link ``v -> parent(v)`` per
        non-sink node, ordered by child index.  Cached."""
        if self._links is None:
            pairs = [
                (v, int(p)) for v, p in enumerate(self._parent) if p >= 0
            ]
            self._links = LinkSet.from_pointset_edges(self.points, pairs)
        return self._links

    def link_of_node(self, v: int) -> int:
        """Index (within :meth:`links`) of the link whose sender is ``v``."""
        if v == self.sink or self._parent[v] < 0:
            raise GeometryError(f"node {v} has no outgoing tree link")
        senders = self.links().sender_ids
        matches = np.flatnonzero(senders == v)
        return int(matches[0])

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return f"AggregationTree(n={len(self.points)}, sink={self.sink}, height={self.height()})"
