"""Conflict-graph construction and queries.

A :class:`ConflictGraph` is the graph ``G_f(L)`` over a link set: links
are vertices, and ``i ~ j`` iff they are *f-conflicting* (Appendix A).
Construction is fully vectorised and routed through the link set's
kernel cache: by default it fills a boolean adjacency matrix; a
``sparse`` cache (the ``blocked-sparse`` backend, :mod:`repro.backend`)
assembles a CSR :class:`~repro.backend.sparse.SparseAdjacency` blockwise
so no ``n x n`` array is ever allocated — the path that makes 100k-link
conflict graphs fit in memory.  All query methods (``neighbors``,
``degree``, ``is_independent``, ...) work identically on both
representations.

Blockwise builds are *spatially pruned* by default: conflicts only
exist within the threshold's conservative conflict radius
(:meth:`~repro.conflict.functions.ThresholdFunction.max_radius`), so a
grid-bucket candidate generator (:mod:`repro.geometry.spatial`) skips
every block pair that provably contains no edge.  Pruning is
conservative and bit-identical — the edge set is byte-equal to the
unpruned build — and can be disabled with ``prune=False``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.backend import assemble_adjacency
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
    ThresholdFunction,
)
from repro.constants import DEFAULT_DELTA, DEFAULT_GAMMA
from repro.errors import ConfigurationError
from repro.geometry.spatial import conflict_candidates
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
    prune:
        Spatial pruning of the blockwise build.  ``None`` (default)
        prunes whenever the build is blockwise (chunked kernel, which
        every sparse kernel is); ``False`` always evaluates every block pair;
        ``True`` additionally routes small dense builds through the
        pruned blockwise path.  The edge set is identical either way.
    """

    def __init__(
        self,
        links: LinkSet,
        threshold: ThresholdFunction,
        *,
        prune: Optional[bool] = None,
    ) -> None:
        self.links = links
        self.threshold = threshold
        self.prune = prune
        self.candidates = None  # GridCandidateGenerator when pruning ran
        self._sparse = None  # SparseAdjacency when the kernel is sparse
        self._adjacency = self._build()

    def _adjacent_block(self, kernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Boolean conflict block for global ``rows x cols`` indices."""
        lengths = self.links.lengths
        gap = kernel.gap_submatrix(rows, cols)
        lmin = np.minimum(lengths[rows][:, None], lengths[cols][None, :])
        lmax = np.maximum(lengths[rows][:, None], lengths[cols][None, :])
        block = gap <= lmin * self.threshold(lmax / lmin)
        block[rows[:, None] == cols[None, :]] = False
        return block

    def _build(self):
        # Conflict iff d(i, j) <= l_min * f(l_max / l_min).  LinkSet
        # construction guarantees strictly positive lengths
        # (DegenerateLinkError otherwise), so the ratio below is always
        # finite and warning-free.
        lengths = self.links.lengths
        kernel = self.links.kernel()
        blockwise = kernel.chunked or self.prune is True
        if blockwise and self.prune is not False:
            self.candidates = conflict_candidates(
                self.links, self.threshold, block_size=kernel.block_size
            )
        if blockwise:
            # Large link sets: stream gap distances in tiles via the
            # kernel cache so no n x n float64 array is allocated (the
            # boolean adjacency is 8x smaller, CSR smaller still),
            # skipping tiles the candidate generator proves edge-free.
            adjacent = assemble_adjacency(
                kernel,
                lambda rows, cols: self._adjacent_block(kernel, rows, cols),
                candidates=self.candidates,
            )
            if kernel.sparse:
                self._sparse = adjacent
                return None
        else:
            gap = self.links.link_distances()
            lmin = np.minimum(lengths[:, None], lengths[None, :])
            lmax = np.maximum(lengths[:, None], lengths[None, :])
            adjacent = gap <= lmin * self.threshold(lmax / lmin)
        np.fill_diagonal(adjacent, False)
        adjacent.setflags(write=False)
        return adjacent

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
        if self._sparse is not None:
            return self._sparse.neighbors(i)
        return np.flatnonzero(self._adjacency[i])

    def degree(self, i: int) -> int:
        """Degree of vertex ``i``."""
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
        if self._sparse is not None:
            return self._sparse.are_adjacent(i, j)
        return bool(self._adjacency[i, j])

    def is_independent(self, subset: Sequence[int]) -> bool:
        """Whether ``subset`` is pairwise f-independent."""
        idx = np.asarray(subset, dtype=int)
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
        """Induced conflict graph on a subset of links."""
        return ConflictGraph(
            self.links.subset(indices), self.threshold, prune=self.prune
        )

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
