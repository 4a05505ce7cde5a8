"""Conflict-graph construction and queries.

A :class:`ConflictGraph` is the graph ``G_f(L)`` over a link set: links
are vertices, and ``i ~ j`` iff they are *f-conflicting* (Appendix A).
There is one build: the cell-local tiles of
:func:`repro.geometry.spatial.conflict_tiles` (one per occupied grid
cell, or one all-pairs tile when the grid cannot help) are evaluated
through the link set's kernel cache and assembled by
:func:`repro.backend.sparse.assemble_adjacency`.  The kernel's
``sparse`` bit (the ``blocked-sparse`` backend, :mod:`repro.backend`)
chooses only the output form: a dense boolean matrix, or a CSR
:class:`~repro.backend.sparse.SparseAdjacency` so no ``n x n`` array is
ever allocated — the form that makes 100k-link conflict graphs fit in
memory.  All query methods (``neighbors``, ``degree``,
``is_independent``, ...) work identically on both forms and reject a
vertex outside ``[0, n)`` with a :class:`~repro.errors.LinkError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.backend import SPARSE_BACKEND, assemble_adjacency
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
    ThresholdFunction,
)
from repro.constants import DEFAULT_DELTA, DEFAULT_GAMMA
from repro.errors import LinkError
from repro.geometry.spatial import conflict_tiles
from repro.links.linkset import LinkSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["ConflictGraph", "g1_graph", "oblivious_graph", "arbitrary_graph"]


class ConflictGraph:
    """The conflict graph ``G_f(L)``.

    Parameters
    ----------
    links:
        The link set (vertex ``i`` is ``links`` entry ``i``).
    threshold:
        The function ``f`` defining independence.
    """

    def __init__(self, links: LinkSet, threshold: ThresholdFunction) -> None:
        self.links = links
        self.threshold = threshold
        self._sparse = None  # SparseAdjacency when the kernel is sparse
        self._adjacency = self._build()

    def _adjacent_block(self, kernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Boolean conflict block for global ``rows x cols`` indices."""
        # Conflict iff d(i, j) <= l_min * f(l_max / l_min).  LinkSet
        # construction guarantees strictly positive lengths
        # (DegenerateLinkError otherwise), so the ratio below is always
        # finite and warning-free.
        lengths = self.links.lengths
        gap = kernel.gap_submatrix(rows, cols)
        lmin = np.minimum(lengths[rows][:, None], lengths[cols][None, :])
        lmax = np.maximum(lengths[rows][:, None], lengths[cols][None, :])
        block = gap <= lmin * self.threshold(lmax / lmin)
        block[rows[:, None] == cols[None, :]] = False
        return block

    def _build(self):
        kernel = self.links.kernel()
        adjacent = assemble_adjacency(
            kernel,
            lambda rows, cols: self._adjacent_block(kernel, rows, cols),
            conflict_tiles(self.links, self.threshold, kernel.block_size),
        )
        if kernel.sparse:
            self._sparse = adjacent
            return None
        adjacent.setflags(write=False)
        return adjacent

    def _vertex(self, i: int) -> int:
        """``i``, or a :class:`~repro.errors.LinkError` when it is not a
        vertex."""
        if not 0 <= i < self.n:
            raise LinkError(f"link index {i} is out of range for {self.n} links")
        return i

    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix.

        Under a sparse backend the dense matrix is materialised on
        first access (guarded by a byte budget), cached on the sparse
        structure and returned read-only — repeated access allocates
        once and mutation raises, exactly like the dense path.
        Scale-sensitive code should prefer :meth:`neighbors` /
        :meth:`degree` / :meth:`is_independent`, which never densify.
        """
        if self._sparse is not None:
            return self._sparse.to_dense()
        return self._adjacency

    @property
    def n(self) -> int:
        """Number of vertices (= links)."""
        return len(self.links)

    @property
    def edge_count(self) -> int:
        """Number of conflict edges."""
        if self._sparse is not None:
            return self._sparse.edge_count
        return int(self._adjacency.sum()) // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Indices adjacent to vertex ``i``."""
        i = self._vertex(i)
        if self._sparse is not None:
            return self._sparse.neighbors(i)
        return np.flatnonzero(self._adjacency[i])

    def degree(self, i: int) -> int:
        """Degree of vertex ``i``."""
        i = self._vertex(i)
        if self._sparse is not None:
            return self._sparse.degree(i)
        return int(self._adjacency[i].sum())

    def max_degree(self) -> int:
        """Maximum degree."""
        if self.n == 0:
            return 0
        if self._sparse is not None:
            return self._sparse.max_degree()
        return int(self._adjacency.sum(axis=1).max())

    def are_adjacent(self, i: int, j: int) -> bool:
        """Whether links ``i`` and ``j`` conflict."""
        i, j = self._vertex(i), self._vertex(j)
        if self._sparse is not None:
            return self._sparse.are_adjacent(i, j)
        return bool(self._adjacency[i, j])

    def is_independent(self, subset: Sequence[int]) -> bool:
        """Whether ``subset`` is pairwise f-independent."""
        idx = np.asarray(subset, dtype=int)
        outside = idx[(idx < 0) | (idx >= self.n)]
        if outside.size:
            self._vertex(int(outside[0]))  # raises
        if idx.size <= 1:
            return True
        if self._sparse is not None:
            return not self._sparse.has_internal_edge(idx)
        block = self._adjacency[np.ix_(idx, idx)]
        return not bool(block.any())

    def to_networkx(self) -> nx.Graph:
        """Export as a :mod:`networkx` graph (vertex = link index)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        if self._sparse is not None:
            for i in range(self.n):
                for j in self._sparse.neighbors(i):
                    if i < j:
                        g.add_edge(i, int(j))
            return g
        rows, cols = np.nonzero(np.triu(self._adjacency, k=1))
        g.add_edges_from(zip(rows.tolist(), cols.tolist()))
        return g

    def subgraph(self, indices: Sequence[int]) -> "ConflictGraph":
        """Induced conflict graph on a subset of links, built with the
        parent's kernel configuration (block size and ``sparse`` bit)."""
        links = self.links.subset(indices)
        kernel = self.links.kernel()
        links.kernel(
            block_size=kernel.block_size,
            backend=SPARSE_BACKEND if kernel.sparse else None,
        )
        return ConflictGraph(links, self.threshold)

    def __repr__(self) -> str:
        return f"ConflictGraph({self.threshold.name}, n={self.n}, m={self.edge_count})"


def g1_graph(links: LinkSet, gamma: float = DEFAULT_GAMMA) -> ConflictGraph:
    """The constant-threshold graph ``G_gamma`` (Theorem 2's ``G1``)."""
    return ConflictGraph(links, ConstantThreshold(gamma))


def oblivious_graph(
    links: LinkSet, gamma: float = DEFAULT_GAMMA, delta: float = DEFAULT_DELTA
) -> ConflictGraph:
    """``G_obl = G^delta_gamma``: independent sets are ``P_tau``-feasible
    for suitable constants; chromatic number is
    ``O(log log Delta) * chi(G1)``."""
    return ConflictGraph(links, PowerLawThreshold(gamma, delta))


def arbitrary_graph(
    links: LinkSet, gamma: float = DEFAULT_GAMMA, alpha: float = 3.0
) -> ConflictGraph:
    """``G_arb = G_{gamma log}``: independent sets are feasible under
    global power control; chromatic number is
    ``O(log* Delta) * chi(G1)``."""
    return ConflictGraph(links, LogThreshold(gamma, alpha))
