"""The :class:`NumericBackend` interface — the contract every numeric
backend implements.

A backend owns the *inner math* of the SINR compute layer: building
kernel blocks (gap / sender-receiver geometry, additive, relative,
affectance), reducing them (column sums, additive interference), the
linear-algebra feasibility primitives (spectral radius, feasibility
margin) and conflict-adjacency assembly.  Everything *around* that math
— dense memoization, lazy promotion, chunk iteration, statistics —
stays in :class:`~repro.sinr.kernels.KernelCache`, which delegates every
numeric block to its backend.

The contract that makes backends swappable mid-pipeline:

**bit-identity** — every backend MUST produce byte-identical results to
``dense-numpy`` for every method below.  Backends differ in *how* they
schedule the work (never materialising dense matrices, assembling CSR
adjacency), never in *what* they compute.
This is why backend choice does not split store keys
(:mod:`repro.store.keys`) and why sweep rows are comparable across
backends.

Two capability flags shape orchestration:

``allows_dense``
    May the kernel cache memoize full dense ``n x n`` matrices?  When
    false the cache behaves as if ``force_chunked`` were set and its
    ``dense_builds`` counter stays at zero by construction.
``sparse_adjacency``
    Should :class:`~repro.conflict.graph.ConflictGraph` assemble its
    adjacency structure as CSR (via :meth:`assemble_adjacency`) instead
    of a dense boolean matrix?
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
)

import numpy as np

from repro.util.parallel import map_blocks_ordered

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.links.linkset import LinkSet
    from repro.sinr.kernels import KernelCache

__all__ = ["CandidateSource", "NumericBackend", "map_blocks_ordered"]


class CandidateSource(Protocol):
    """A source of ``(rows, cols)`` block pairs that *may* contain edges.

    The spatial-pruning contract: any global index pair ``(i, j)`` that
    is adjacent in the conflict graph MUST appear in at least one
    yielded block pair, and no pair may appear in more than one (each
    tile is evaluated exactly once).  The canonical implementation is
    :class:`repro.geometry.spatial.GridCandidateGenerator`.
    """

    def pairs(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield candidate ``(rows, cols)`` global-index block pairs."""
        ...


class NumericBackend:
    """Abstract numeric backend for the SINR kernel core.

    Subclasses implement the geometry/kernel block builders; the
    reductions and linear-algebra defaults below are shared reference
    implementations that every backend currently inherits unchanged (the
    bit-identity contract makes alternatives pointless unless they are
    exactly equivalent).
    """

    #: Registry name (``backend.name`` is recorded in provenance).
    name: str = "abstract"
    #: Whether the kernel cache may memoize dense ``n x n`` matrices.
    allows_dense: bool = True
    #: Whether conflict graphs should assemble CSR adjacency.
    sparse_adjacency: bool = False

    # ------------------------------------------------------------------
    # Geometry blocks
    # ------------------------------------------------------------------
    def gap_block(
        self, links: "LinkSet", rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Gap distances ``d(i, j)`` (4-way sender/receiver minimum),
        zero where global indices coincide."""
        raise NotImplementedError

    def srdist_block(
        self, links: "LinkSet", rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Sender-receiver distances ``D[j, i] = d(s_j, r_i)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Kernel builders (full + block)
    # ------------------------------------------------------------------
    def additive_full(self, links: "LinkSet", alpha: float) -> np.ndarray:
        """Dense additive kernel ``I[j, i] = min(1, l_j^a / d(i,j)^a)``."""
        raise NotImplementedError

    def additive_block(
        self, links: "LinkSet", alpha: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Additive kernel restricted to ``rows x cols``."""
        raise NotImplementedError

    def relative_full(
        self, links: "LinkSet", vec: np.ndarray, alpha: float
    ) -> np.ndarray:
        """Dense relative kernel ``R[j, i] = (P_j/P_i)(l_i/d_ji)^a``."""
        raise NotImplementedError

    def relative_block(
        self,
        links: "LinkSet",
        vec: np.ndarray,
        alpha: float,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Relative kernel restricted to ``rows x cols``."""
        raise NotImplementedError

    def affectance_full(
        self, links: "LinkSet", alpha: float, beta: float
    ) -> np.ndarray:
        """Dense affectance ``A[i, j] = beta * l_i^a / d_ji^a``."""
        raise NotImplementedError

    def affectance_block(
        self,
        links: "LinkSet",
        alpha: float,
        beta: float,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Affectance restricted to ``rows`` (receivers) x ``cols``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def colsums(self, block: np.ndarray) -> np.ndarray:
        """Column sums of one kernel block (Equation 1 row-sum side)."""
        return block.sum(axis=0)

    def additive_interference(
        self, cache: "KernelCache", alpha: float, source, target: int
    ) -> float:
        """``I(S, i) = sum_{j in S} I[j, i]`` streamed in blocks."""
        from repro.sinr.kernels import as_index_array

        src = as_index_array(source)
        if src.size == 0:
            return 0.0
        total = 0.0
        for block in cache.iter_blocks(src):
            total += float(cache.additive_submatrix(alpha, block, [int(target)]).sum())
        return total

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def spectral_radius(self, matrix: np.ndarray) -> float:
        """``max |eigenvalue|`` of a square (slot-sized) matrix.

        Slot matrices are small even in 100k-link networks, so every
        backend shares the dense ``eigvals`` reference — a sparse
        iterative solver would break the bit-identity contract.
        """
        a = np.asarray(matrix, dtype=float)
        if a.shape[0] == 0:
            return 0.0
        if a.shape[0] == 1:
            return float(abs(a[0, 0]))
        return float(np.abs(np.linalg.eigvals(a)).max())

    def feasibility_margin(self, matrix: np.ndarray) -> float:
        """``1 - rho(A)`` — positive iff some power assignment works."""
        return 1.0 - self.spectral_radius(matrix)

    # ------------------------------------------------------------------
    # Conflict adjacency
    # ------------------------------------------------------------------
    def _adjacency_pairs(
        self,
        cache: "KernelCache",
        candidates: Optional[CandidateSource],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Tile list for adjacency assembly: the candidate source's
        pairs when pruning, else every row-block x col-block tile.

        The unpruned path is tile-granular too (not row strips), so
        ``KernelStats.block_evals`` counts the same unit of work either
        way and pruned-vs-unpruned comparisons are apples-to-apples.
        """
        if candidates is not None:
            return list(candidates.pairs())
        blocks = list(cache.iter_blocks(np.arange(cache.n)))
        return [(rows, cols) for rows in blocks for cols in blocks]

    def assemble_adjacency(
        self,
        cache: "KernelCache",
        block_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        candidates: Optional[CandidateSource] = None,
    ) -> Any:
        """Assemble the conflict adjacency from boolean blocks.

        ``block_fn(rows, cols)`` returns the boolean adjacency block for
        the given global indices (diagonal already cleared).  Dense
        backends fill an ``n x n`` boolean matrix; sparse backends
        return a :class:`~repro.backend.sparse.SparseAdjacency`.

        ``candidates`` is the spatial-pruning seam: when given, only its
        block pairs are evaluated and every other tile is left at the
        zero-initialised default — sound because a conservative
        candidate source covers all edges, and bit-identical because a
        skipped tile is exactly all-``False``.  Tiles are evaluated with
        ``cache.block_workers`` threads via :func:`map_blocks_ordered`,
        which preserves the serial tile order.
        """
        n = cache.n
        adjacent = np.zeros((n, n), dtype=bool)
        tiles = self._adjacency_pairs(cache, candidates)

        def build(tile: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
            return block_fn(tile[0], tile[1])

        for (rows, cols), block in map_blocks_ordered(
            build, tiles, cache.block_workers
        ):
            adjacent[np.ix_(rows, cols)] = block
        return adjacent

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
