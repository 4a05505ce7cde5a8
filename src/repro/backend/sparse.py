"""Conflict-adjacency assembly, dense or CSR, from boolean tiles.

In the near-threshold regime the conflict adjacency is sparse (bounded
degree by the paper's diversity argument), so on a ``sparse`` kernel
cache (the ``blocked-sparse`` backend) :func:`assemble_adjacency` scans
each boolean tile for edges and keeps only the ``O(n * max_degree)``
index arrays of a CSR :class:`SparseAdjacency`; otherwise it fills a
dense boolean ``n x n`` matrix.  Either way every entry comes from the
same tile function, so the two forms hold the same edge set.

The CSR assembly is hand-rolled (COO chunks -> indptr/indices) so there
is no hard scipy dependency; :meth:`SparseAdjacency.to_scipy` exports a
``csr_matrix`` when scipy is installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sinr.kernels import KernelCache

__all__ = ["SparseAdjacency", "assemble_adjacency"]

#: Largest dense boolean adjacency (in bytes) that
#: :meth:`SparseAdjacency.to_dense` will materialise on demand.
_DENSE_ADJACENCY_BUDGET_BYTES = 256 * 1024 * 1024


class SparseAdjacency:
    """A symmetric boolean adjacency in CSR form.

    Parameters
    ----------
    indptr:
        ``(n + 1,)`` int64 row pointers.
    indices:
        Column indices, row-major; each row's slice is sorted.
    """

    __slots__ = ("indptr", "indices", "n", "_dense")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.n = int(self.indptr.size - 1)
        self._dense: Any = None

    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour indices of vertex ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as one vector."""
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def are_adjacent(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return bool(pos < row.size and row[pos] == j)

    def has_internal_edge(self, subset: np.ndarray) -> bool:
        """Whether any edge connects two vertices of ``subset``."""
        subset = np.asarray(subset, dtype=int)
        if subset.size < 2:
            return False
        members = np.zeros(self.n, dtype=bool)
        members[subset] = True
        for i in subset:
            row = self.neighbors(i)
            if row.size and members[row].any():
                return True
        return False

    def to_dense(self) -> np.ndarray:
        """The dense boolean matrix (cached; guarded by a byte budget)."""
        if self._dense is None:
            if self.n * self.n > _DENSE_ADJACENCY_BUDGET_BYTES:
                raise ConfigurationError(
                    f"dense adjacency for n={self.n} would exceed the "
                    f"{_DENSE_ADJACENCY_BUDGET_BYTES} byte budget; use "
                    "neighbors()/degrees() on the sparse structure instead"
                )
            dense = np.zeros((self.n, self.n), dtype=bool)
            rows = np.repeat(np.arange(self.n), self.degrees())
            dense[rows, self.indices] = True
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def to_scipy(self):
        """Export as ``scipy.sparse.csr_matrix`` (requires scipy)."""
        try:
            from scipy.sparse import csr_matrix
        except ImportError as exc:  # pragma: no cover - scipy is bundled
            raise ConfigurationError("scipy is required for to_scipy()") from exc
        data = np.ones(self.indices.size, dtype=bool)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def __repr__(self) -> str:
        return f"SparseAdjacency(n={self.n}, edges={self.edge_count})"


def assemble_adjacency(
    cache: "KernelCache",
    block_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tiles: Iterable[Tuple[np.ndarray, np.ndarray]],
) -> Union[np.ndarray, SparseAdjacency]:
    """Assemble the conflict adjacency from boolean tiles.

    ``block_fn(rows, cols)`` returns the boolean adjacency block for the
    given global indices (diagonal already cleared); ``tiles`` yields
    the ascending ``(rows, cols)`` index arrays to evaluate, each global
    ``(i, j)`` in at most one tile and every edge in one
    (:func:`repro.geometry.spatial.conflict_tiles`).  Entries outside
    every tile stay ``False``.  Returns a :class:`SparseAdjacency` when
    ``cache.sparse``, else a dense boolean ``n x n`` matrix.
    """
    n = cache.n
    if not cache.sparse:
        adjacent = np.zeros((n, n), dtype=bool)
        for rows, cols in tiles:
            block = block_fn(rows, cols)
            if block.shape == (n, n):
                # Tiles index ascending and never repeat a pair, so an
                # n x n tile is the whole matrix, in order.
                return block
            adjacent[np.ix_(rows, cols)] = block
        return adjacent
    row_chunks: List[np.ndarray] = []
    col_chunks: List[np.ndarray] = []
    for rows, cols in tiles:
        local_rows, local_cols = np.nonzero(block_fn(rows, cols))
        if local_rows.size:
            row_chunks.append(rows[local_rows].astype(np.int64, copy=False))
            col_chunks.append(cols[local_cols].astype(np.int64, copy=False))
    if row_chunks:
        edge_rows = np.concatenate(row_chunks)
        edge_cols = np.concatenate(col_chunks)
        # Canonicalise the COO chunks to CSR order (rows ascending,
        # columns sorted within each row); each global (i, j) lives
        # in exactly one tile, so no duplicate handling is needed.
        order = np.lexsort((edge_cols, edge_rows))
        edge_rows = edge_rows[order]
        indices = edge_cols[order]
        counts = np.bincount(edge_rows, minlength=n).astype(np.int64)
    else:
        indices = np.empty(0, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SparseAdjacency(indptr, indices)
