"""Block-evaluated, chunked interference kernels — the SINR compute layer.

Every feasibility oracle, conflict graph and repair pass in this library
ultimately reads entries of one of three pairwise kernels over a link
set:

* the **additive** kernel ``I[j, i] = min(1, l_j^alpha / d(i, j)^alpha)``
  built on the link-to-link gap distance (Lemma 1 / Theorem 3);
* the **relative-interference** kernel
  ``R[j, i] = (P_j / P_i) * (l_i / d_ji)^alpha`` under a fixed power
  vector (Equation 1 row sums);
* the **normalised affectance** ``A[i, j] = beta * l_i^alpha / d_ji^alpha``
  whose spectral radius decides feasibility under *some* power.

The seed implementation rebuilt dense ``n x n`` matrices from scratch on
every query — even to read a handful of entries.  :class:`KernelCache`
replaces that: one cache is attached to each (immutable)
:class:`~repro.links.linkset.LinkSet` via ``links.kernel()`` and

* **block-evaluates** every submatrix, column-sum and query: a
  ``rows x cols`` request computes exactly those entries, so a query
  costs ``O(rows * cols)``, never ``O(n^2)``, and no relative or
  affectance matrix is ever built whole;
* **builds no whole matrix**: callers that read every additive entry
  (the Theorem-2 refinement, the Lemma-1 bound) take one row at a time
  from :meth:`KernelCache.additive_rows`, which computes them a tile of
  about ``TILE_ENTRIES`` entries at a time;
* **chunks** when the link set is large (``n > KERNEL_MAX_DENSE_LINKS``)
  or the cache is ``sparse`` (the ``blocked-sparse`` backend): column
  sums are streamed in row blocks of ``block_size`` and no ``n x n``
  float64 array is ever allocated.  This is all the backend name
  selects; conflict graphs test candidate pairs in chunks of at most
  ``block_size**2`` pairs and keep CSR edges under either name
  (:class:`~repro.conflict.graph.ConflictGraph`);
* **validates** every index it is asked for: a negative or
  out-of-range link index raises :class:`~repro.errors.LinkError`
  naming it, instead of wrapping around or surfacing as a bare numpy
  ``IndexError``.

The *inner math* — how each block is actually computed — is the plain
functions of :mod:`repro.backend.blocks`; the cache keeps only the
orchestration: chunk iteration, index checks and statistics.  Every
path computes its entries with the same functions, so the backend name
never changes a schedule, a measurement or a store key.

Link sets are immutable and a cache memoizes no entry, so nothing
underneath a cache can go stale: replacing or mutating a power vector
cannot alias an old result.  :class:`KernelStats` counts block
evaluations and the entries they computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.backend import SPARSE_BACKEND, blocks, check_backend
from repro.constants import KERNEL_BLOCK_SIZE, KERNEL_MAX_DENSE_LINKS
from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.util.validation import check_int_min, check_link_indices

__all__ = ["KernelCache", "KernelStats"]


@dataclass
class KernelStats:
    """Instrumentation counters for one :class:`KernelCache`.

    Every entry is block-evaluated, so ``entries_served`` counts each
    entry computed, every conflict-graph pair included;
    ``block_evals`` counts blocks of any size (a conflict graph counts
    one per chunk of pairs, :meth:`KernelCache.additive_rows` one per
    tile), so it is not a unit of work.
    """

    block_evals: int = 0
    entries_served: int = 0

    def count_block(self, entries: int) -> None:
        """Record one block evaluation serving ``entries`` entries."""
        self.block_evals += 1
        self.entries_served += entries

    def snapshot(self) -> dict:
        """Counters as a plain dict (for reports and benchmarks)."""
        return {
            "block_evals": self.block_evals,
            "entries_served": self.entries_served,
        }


class KernelCache:
    """Block evaluator of pairwise interference kernels.

    Parameters
    ----------
    links:
        The link set the kernels are defined over.  Obtain the attached
        instance with ``links.kernel()`` rather than constructing one
        directly, so all consumers share the same configuration and
        counters.
    block_size:
        Row-block size for chunked evaluation (an integer >= 1).
    backend:
        Numeric-backend name (default ``dense-numpy``; see
        :mod:`repro.backend`).  ``blocked-sparse`` sets :attr:`sparse`.
    """

    def __init__(
        self,
        links: LinkSet,
        *,
        block_size: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.links = links
        self.block_size = check_int_min(
            "block_size",
            KERNEL_BLOCK_SIZE if block_size is None else block_size,
            minimum=1,
        )
        #: Stream column sums in row blocks at every ``n``.
        self.sparse = backend is not None and check_backend(backend) == SPARSE_BACKEND
        self.stats = KernelStats()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of links."""
        return len(self.links)

    @property
    def chunked(self) -> bool:
        """Whether column sums stream in row blocks (no ``n x n``
        intermediate is allocated)."""
        return self.sparse or self.n > KERNEL_MAX_DENSE_LINKS

    def config(self) -> Tuple[int, bool]:
        """The tuple identifying this cache's configuration."""
        return (self.block_size, self.sparse)

    def __repr__(self) -> str:
        mode = "chunked" if self.chunked else "dense"
        return (
            f"KernelCache(n={self.n}, {mode}, block={self.block_size}, "
            f"sparse={self.sparse})"
        )

    # ------------------------------------------------------------------
    # Indices and block iteration
    # ------------------------------------------------------------------
    def _index(self, indices) -> np.ndarray:
        """``indices`` as a 1-D int array; a
        :class:`~repro.errors.LinkError` names the first one outside
        ``[0, n)``."""
        return check_link_indices(indices, self.n)

    def iter_blocks(self, indices) -> Iterator[np.ndarray]:
        """Yield ``indices`` in row blocks of ``block_size``."""
        idx = self._index(indices)
        for start in range(0, idx.size, self.block_size):
            yield idx[start : start + self.block_size]

    # ------------------------------------------------------------------
    # Additive kernel  I[j, i] = min(1, l_j^alpha / d(i, j)^alpha)
    # ------------------------------------------------------------------
    def additive_submatrix(self, alpha: float, rows, cols) -> np.ndarray:
        """``I[j, i]`` for ``j`` in rows, ``i`` in cols, without a full rebuild."""
        rows = self._index(rows)
        cols = self._index(cols)
        m = blocks.additive_block(self.links, alpha, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return m

    def additive_rows(self, alpha: float, order) -> Iterator[np.ndarray]:
        """Rows ``I[i, :]`` over every link, for each ``i`` in ``order``:
        one block per tile of about ``TILE_ENTRIES`` entries (whole
        rows), so no ``n x n`` array exists."""
        idx = self._index(order)
        everything = np.arange(self.n)
        step = max(1, blocks.TILE_ENTRIES // self.n)
        for start in range(0, idx.size, step):
            yield from self.additive_submatrix(alpha, idx[start : start + step], everything)

    def additive_query(self, alpha: float, source, target: int) -> float:
        """``I(S, i) = sum_{j in S} I[j, i]`` as an O(|S|) query,
        streamed in blocks."""
        total = 0.0
        for block in self.iter_blocks(source):
            total += float(self.additive_submatrix(alpha, block, [int(target)]).sum())
        return total

    # ------------------------------------------------------------------
    # Relative-interference kernel  R[j, i] = (P_j/P_i) (l_i/d_ji)^alpha
    # ------------------------------------------------------------------
    def _relative_block(
        self, vec: np.ndarray, alpha: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        rel = blocks.relative_block(self.links, vec, alpha, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return rel

    def _power(self, vec) -> np.ndarray:
        """``vec`` as an array if its shape is ``(n,)``; otherwise a
        :class:`~repro.errors.ConfigurationError` (a shape test, no
        per-entry scan)."""
        vec = np.asarray(vec)
        if vec.shape != (self.n,):
            raise ConfigurationError(
                f"power vector shape {vec.shape} does not match link count {self.n}"
            )
        return vec

    def relative_submatrix(self, vec: np.ndarray, alpha: float, rows, cols) -> np.ndarray:
        """``R[j, i]`` for ``j`` in rows, ``i`` in cols under powers ``vec``.

        ``vec`` is the *full-length* power vector (indexed by global
        link index; any other shape is a
        :class:`~repro.errors.ConfigurationError`).  One block
        evaluation of exactly these entries.
        """
        vec = self._power(vec)
        return self._relative_block(vec, alpha, self._index(rows), self._index(cols))

    def relative_colsums(self, vec: np.ndarray, alpha: float, active) -> np.ndarray:
        """``sum_{j in active} R[j, i]`` for each ``i`` in ``active``.

        The row-sum side of Equation (1): the set is feasible
        (noiseless) iff every entry is at most ``1/beta``.  In chunked
        mode the sums are streamed over row blocks
        (:meth:`column_sums`) and the ``|active| x |active|`` matrix is
        never materialised.
        """
        vec = self._power(vec)
        idx = self._index(active)
        return self.column_sums(
            idx.size, lambda part: self._relative_block(vec, alpha, idx[part], idx)
        )

    def column_sums(self, size: int, rows: Callable[[slice], np.ndarray]) -> np.ndarray:
        """Column sums of a ``size x size`` block whose rows ``part``
        (a slice) are ``rows(part)``.

        A dense cache sums all rows at once; a chunked one sums each
        ``block_size``-row chunk and adds the chunk sums in row order,
        so no more than one chunk need exist at a time.  The one place
        this order is written: :meth:`relative_colsums` streams its
        blocks through it, and
        :meth:`~repro.scheduling.repair.FixedPowerPacker.split` sums a
        whole class block with it, so both add the same values in the
        same order.
        """
        if not self.chunked:
            return rows(slice(0, size)).sum(axis=0)
        sums = np.zeros(size)
        for start in range(0, size, self.block_size):
            sums += rows(slice(start, start + self.block_size)).sum(axis=0)
        return sums

    # ------------------------------------------------------------------
    # Affectance kernel  A[i, j] = beta * l_i^alpha / d_ji^alpha
    # ------------------------------------------------------------------
    def affectance_submatrix(self, model, rows, cols) -> np.ndarray:
        """``A[i, j]`` for ``i`` in rows (receivers), ``j`` in cols (senders)."""
        rows = self._index(rows)
        cols = self._index(cols)
        a = blocks.affectance_block(self.links, model.alpha, model.beta, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return a
