"""Conflict-graph construction and queries.

A :class:`ConflictGraph` is the graph ``G_f(L)`` over a link set: links
are vertices, and ``i ~ j`` iff they are *f-conflicting* (Appendix A).
There is one build and one form.  The candidate pairs of
:func:`repro.geometry.spatial.candidate_pairs` (each link against the
shorter links within its reach, or every pair when the grid cannot
help) are tested in chunks of at most ``block_size**2`` (and at most
16,384) pairs, each counted as one block in the kernel's statistics,
and the edges are kept in CSR form: ``indptr`` / ``indices`` index
arrays of ``O(n + edges)`` bytes, never an ``n x n`` matrix.  The
paper's conflict graphs are sparse by construction (constant inductive
independence), which is what lets 100k-link graphs fit in memory.  The backend name
(:mod:`repro.backend`) does not change the form.  Every query method
(``neighbors``, ``degree``, ``is_independent``, ...) reads the CSR
arrays and rejects a vertex outside ``[0, n)`` with a
:class:`~repro.errors.LinkError`; there is no dense view.  The pair test
is the rule's own :class:`ConflictRule` ``conflicts``: a threshold's gap
test, or the protocol model's disks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, Tuple

import numpy as np

from repro.backend import SPARSE_BACKEND
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
)
from repro.constants import DEFAULT_DELTA, DEFAULT_GAMMA
from repro.errors import LinkError
from repro.geometry.spatial import candidate_pairs
from repro.links.linkset import LinkSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["ConflictGraph", "g1_graph", "oblivious_graph", "arbitrary_graph"]

#: Candidate pairs tested per chunk (fewer when ``block_size**2`` is
#: smaller).  A chunk's temporaries then stay near 2 MiB; on
#: schedule-build's n=4200 graph this measured faster than one chunk of
#: ``1024**2`` and cut the build's traced peak from 10.3 to 4.3 MiB.
_CHUNK_PAIRS = 2**14


class ConflictRule(Protocol):
    """A ``reach`` that bounds the rule's pairs (as
    :meth:`~repro.conflict.functions.ThresholdFunction.reach` does) and
    a ``conflicts`` test of aligned ``(longer, shorter)`` pairs."""

    name: str

    def reach(self, lengths: np.ndarray) -> np.ndarray: ...

    def conflicts(self, links: LinkSet, longer: np.ndarray, shorter: np.ndarray) -> np.ndarray: ...


class ConflictGraph:
    """The conflict graph ``G_f(L)``, held in CSR form.

    Parameters
    ----------
    links:
        The link set (vertex ``i`` is ``links`` entry ``i``).
    threshold:
        The function ``f`` defining independence, or another
        :class:`ConflictRule`.

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` read-only int64 row pointers.
    indices:
        Read-only int64 neighbour indices, row-major; vertex ``i``'s
        neighbours are ``indices[indptr[i]:indptr[i + 1]]``, ascending.
        An edge ``{i, j}`` appears in both row ``i`` and row ``j``.
    """

    def __init__(self, links: LinkSet, threshold: ConflictRule) -> None:
        self.links = links
        self.threshold = threshold
        kernel = links.kernel()
        n = len(links)
        longer_chunks = [np.empty(0, dtype=np.int64)]
        shorter_chunks = [np.empty(0, dtype=np.int64)]
        chunk = min(kernel.block_size**2, _CHUNK_PAIRS)
        for longer, shorter in candidate_pairs(links, threshold.reach(links.lengths), chunk):
            conflict = threshold.conflicts(links, longer, shorter)
            kernel.stats.count_block(longer.size)
            longer_chunks.append(longer[conflict])
            shorter_chunks.append(shorter[conflict])
        longer = np.concatenate(longer_chunks)
        shorter = np.concatenate(shorter_chunks)
        # Each edge came once; store both directions in CSR order (rows
        # ascending, columns sorted within each row).
        edge_rows = np.concatenate([longer, shorter])
        edge_cols = np.concatenate([shorter, longer])
        order = np.argsort(edge_rows * n + edge_cols)
        self.indices = edge_cols[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_rows, minlength=n), out=self.indptr[1:])
        self.indices.setflags(write=False)
        self.indptr.setflags(write=False)

    def _vertex(self, i: int) -> int:
        """``i``, or a :class:`~repro.errors.LinkError` when it is not a
        vertex."""
        if not 0 <= i < self.n:
            raise LinkError(f"link index {i} is out of range for {self.n} links")
        return i

    @property
    def n(self) -> int:
        """Number of vertices (= links)."""
        return len(self.links)

    @property
    def edge_count(self) -> int:
        """Number of conflict edges."""
        return self.indices.size // 2

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every edge in both directions, as aligned ``(rows, cols)``
        index arrays in CSR order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices

    def neighbors(self, i: int) -> np.ndarray:
        """Ascending indices adjacent to vertex ``i`` (a read-only view)."""
        i = self._vertex(i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        """Degree of vertex ``i``."""
        i = self._vertex(i)
        return int(self.indptr[i + 1] - self.indptr[i])

    def max_degree(self) -> int:
        """Maximum degree."""
        return int(np.diff(self.indptr).max()) if self.n else 0

    def are_adjacent(self, i: int, j: int) -> bool:
        """Whether links ``i`` and ``j`` conflict."""
        row = self.neighbors(i)
        j = self._vertex(j)
        pos = np.searchsorted(row, j)
        return bool(pos < row.size and row[pos] == j)

    def is_independent(self, subset: Sequence[int]) -> bool:
        """Whether ``subset`` is pairwise f-independent."""
        idx = np.asarray(subset, dtype=int)
        outside = idx[(idx < 0) | (idx >= self.n)]
        if outside.size:
            self._vertex(int(outside[0]))  # raises
        members = np.zeros(self.n, dtype=bool)
        members[idx] = True
        rows, cols = self.edges()
        return not bool((members[rows] & members[cols]).any())

    def to_networkx(self) -> nx.Graph:
        """Export as a :mod:`networkx` graph (vertex = link index)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        rows, cols = self.edges()
        upper = rows < cols
        g.add_edges_from(zip(rows[upper].tolist(), cols[upper].tolist()))
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
