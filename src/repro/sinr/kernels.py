"""Cached, chunked interference kernels — the compute layer under SINR.

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

* **memoizes** dense matrices per kernel key — ``("additive", alpha)``,
  ``("relative", alpha, power-digest)``, ``("affectance", alpha, beta)``
  — so repeated queries are served by slicing;
* **promotes lazily**: a dense matrix is only built once a key has been
  queried more than :data:`~repro.constants.KERNEL_DENSE_PROMOTE_AFTER`
  times, so a one-off row/submatrix query costs ``O(rows * cols)``, not
  ``O(n^2)``;
* **chunks** when the link set is large (``n > KERNEL_MAX_DENSE_LINKS``)
  or the cache is ``sparse`` (the ``blocked-sparse`` backend): queries
  and column sums are streamed in row blocks of ``block_size`` and no
  ``n x n`` float64 array is ever allocated.

The *inner math* — how each block is actually computed — is the plain
functions of :mod:`repro.backend.blocks`; the cache keeps only the
orchestration: memoization, lazy promotion, chunk iteration and
statistics.  Every path computes its entries with the same functions,
so the backend name never changes a schedule, a measurement or a store
key.

Link sets are immutable, so the geometry underneath a cache can never go
stale.  Power vectors are keyed by content digest
(:func:`power_digest`), so replacing or mutating a power vector
automatically misses the old entry; :meth:`KernelCache.invalidate`
drops all memoized matrices explicitly.  :class:`KernelStats` counts
dense builds, hits and block evaluations so benchmarks (and curious
users) can verify the memory ceiling.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.backend import SPARSE_BACKEND, blocks, check_backend
from repro.constants import (
    KERNEL_BLOCK_SIZE,
    KERNEL_DENSE_BUDGET_BYTES,
    KERNEL_DENSE_PROMOTE_AFTER,
    KERNEL_MAX_DENSE_LINKS,
)
from repro.links.linkset import LinkSet
from repro.util.validation import check_int_min

__all__ = ["KernelCache", "KernelStats", "power_digest"]

#: Upper bound on memoized dense matrices per cache (LRU-evicted; the
#: byte budget in constants.py usually binds first for large n).
_MAX_DENSE_MATRICES = 8

#: Upper bound on tracked promotion counters (one per kernel key seen);
#: oldest entries are dropped beyond this so workloads cycling through
#: many power vectors don't grow the dict unboundedly.
_MAX_PROMOTION_KEYS = 4096


def power_digest(vec: np.ndarray) -> str:
    """Content digest of a power vector, used as its cache key.

    Keying by value (not object identity) means a mutated or freshly
    built vector can never alias a stale cached matrix.
    """
    return hashlib.sha1(np.ascontiguousarray(vec, dtype=float).tobytes()).hexdigest()


def as_index_array(indices) -> np.ndarray:
    """Normalise an index spec to a 1-D int array."""
    return np.atleast_1d(np.asarray(indices, dtype=int))


@dataclass
class KernelStats:
    """Instrumentation counters for one :class:`KernelCache`.

    ``dense_builds`` counts full ``n x n`` materialisations — the
    chunked-mode memory guarantee is exactly ``dense_builds == 0``.
    """

    dense_builds: int = 0
    dense_hits: int = 0
    block_evals: int = 0
    entries_served: int = 0

    def count_block(self, entries: int) -> None:
        """Record one block evaluation serving ``entries`` entries."""
        self.block_evals += 1
        self.entries_served += entries

    def snapshot(self) -> dict:
        """Counters as a plain dict (for reports and benchmarks)."""
        return {
            "dense_builds": self.dense_builds,
            "dense_hits": self.dense_hits,
            "block_evals": self.block_evals,
            "entries_served": self.entries_served,
        }


class KernelCache:
    """Memoized / chunked evaluator of pairwise interference kernels.

    Parameters
    ----------
    links:
        The link set the kernels are defined over.  Obtain the attached
        instance with ``links.kernel()`` rather than constructing one
        directly, so all consumers share the same memo.
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
        #: Never memoize a dense ``n x n`` matrix, and assemble conflict
        #: adjacency as CSR.
        self.sparse = backend is not None and check_backend(backend) == SPARSE_BACKEND
        self._dense: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._uses: dict = {}
        self.stats = KernelStats()

    # ------------------------------------------------------------------
    # Configuration / lifecycle
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of links."""
        return len(self.links)

    @property
    def chunked(self) -> bool:
        """Whether dense ``n x n`` materialisation is forbidden."""
        return self.sparse or self.n > KERNEL_MAX_DENSE_LINKS

    def config(self) -> Tuple[int, bool]:
        """The tuple identifying this cache's configuration."""
        return (self.block_size, self.sparse)

    def invalidate(self) -> None:
        """Drop every memoized matrix and promotion counter."""
        self._dense.clear()
        self._uses.clear()

    def __repr__(self) -> str:
        mode = "chunked" if self.chunked else "dense"
        return (
            f"KernelCache(n={self.n}, {mode}, block={self.block_size}, "
            f"sparse={self.sparse}, cached={len(self._dense)})"
        )

    # ------------------------------------------------------------------
    # Dense memo management
    # ------------------------------------------------------------------
    def _dense_get(self, key: Tuple) -> Optional[np.ndarray]:
        matrix = self._dense.get(key)
        if matrix is not None:
            self._dense.move_to_end(key)
            self.stats.dense_hits += 1
        return matrix

    def _dense_put(self, key: Tuple, matrix: np.ndarray) -> np.ndarray:
        matrix.setflags(write=False)
        self._dense[key] = matrix
        self._dense.move_to_end(key)
        total = sum(m.nbytes for m in self._dense.values())
        while len(self._dense) > 1 and (
            len(self._dense) > _MAX_DENSE_MATRICES or total > KERNEL_DENSE_BUDGET_BYTES
        ):
            _, evicted = self._dense.popitem(last=False)
            total -= evicted.nbytes
        self.stats.dense_builds += 1
        return matrix

    def _dense_ensure(self, key: Tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        matrix = self._dense_get(key)
        if matrix is None:
            matrix = self._dense_put(key, build())
        return matrix

    def _dense_for_query(
        self, key: Tuple, build: Callable[[], np.ndarray]
    ) -> Optional[np.ndarray]:
        """Dense matrix for ``key`` if cached or queried often enough.

        Returns ``None`` when the query should be block-evaluated
        instead (chunked mode, or a not-yet-popular key).
        """
        matrix = self._dense_get(key)
        if matrix is not None:
            return matrix
        if self.chunked:
            return None
        uses = self._uses.get(key, 0)
        if uses >= KERNEL_DENSE_PROMOTE_AFTER:
            return self._dense_put(key, build())
        self._uses[key] = uses + 1
        while len(self._uses) > _MAX_PROMOTION_KEYS:
            self._uses.pop(next(iter(self._uses)))
        return None

    # ------------------------------------------------------------------
    # Block iteration
    # ------------------------------------------------------------------
    def iter_blocks(self, indices) -> Iterator[np.ndarray]:
        """Yield ``indices`` in row blocks of ``block_size``."""
        idx = as_index_array(indices)
        for start in range(0, idx.size, self.block_size):
            yield idx[start : start + self.block_size]

    # ------------------------------------------------------------------
    # Geometry blocks
    # ------------------------------------------------------------------
    def gap_submatrix(self, rows, cols) -> np.ndarray:
        """Gap distances ``d(i, j)`` for ``i`` in rows, ``j`` in cols.

        Zero whenever the global indices coincide (same convention as
        :meth:`LinkSet.link_distances`).  Computed blockwise — the full
        matrix is never required.
        """
        rows = as_index_array(rows)
        cols = as_index_array(cols)
        gap = blocks.gap_block(self.links, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return gap

    # ------------------------------------------------------------------
    # Additive kernel  I[j, i] = min(1, l_j^alpha / d(i, j)^alpha)
    # ------------------------------------------------------------------
    def _additive_builder(self, alpha: float) -> Callable[[], np.ndarray]:
        return lambda: blocks.additive_full(self.links, alpha)

    def _additive_block(self, alpha: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        m = blocks.additive_block(self.links, alpha, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return m

    def additive_matrix(self, alpha: float) -> np.ndarray:
        """The full dense additive kernel (memoized, read-only).

        This *explicitly* materialises ``n x n`` — callers that only
        need a few entries should use :meth:`additive_submatrix` or
        :meth:`additive_query` instead.
        """
        return self._dense_ensure(("additive", float(alpha)), self._additive_builder(alpha))

    def additive_submatrix(self, alpha: float, rows, cols) -> np.ndarray:
        """``I[j, i]`` for ``j`` in rows, ``i`` in cols, without a full rebuild."""
        rows = as_index_array(rows)
        cols = as_index_array(cols)
        key = ("additive", float(alpha))
        dense = self._dense_for_query(key, self._additive_builder(alpha))
        if dense is not None:
            self.stats.entries_served += rows.size * cols.size
            return dense[np.ix_(rows, cols)]
        return self._additive_block(alpha, rows, cols)

    def additive_query(self, alpha: float, source, target: int) -> float:
        """``I(S, i) = sum_{j in S} I[j, i]`` as an O(|S|) query,
        streamed in blocks."""
        src = as_index_array(source)
        total = 0.0
        for block in self.iter_blocks(src):
            total += float(self.additive_submatrix(alpha, block, [int(target)]).sum())
        return total

    # ------------------------------------------------------------------
    # Relative-interference kernel  R[j, i] = (P_j/P_i) (l_i/d_ji)^alpha
    # ------------------------------------------------------------------
    def relative_key(self, vec: np.ndarray, alpha: float) -> Tuple:
        """Memo key of the relative kernel for one power vector."""
        return ("relative", float(alpha), power_digest(vec))

    def _relative_builder(self, vec: np.ndarray, alpha: float) -> Callable[[], np.ndarray]:
        return lambda: blocks.relative_full(self.links, vec, alpha)

    def _relative_block(
        self, vec: np.ndarray, alpha: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        rel = blocks.relative_block(self.links, vec, alpha, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return rel

    def relative_submatrix(
        self, vec: np.ndarray, alpha: float, rows, cols, *, key: Optional[Tuple] = None
    ) -> np.ndarray:
        """``R[j, i]`` for ``j`` in rows, ``i`` in cols under powers ``vec``.

        ``vec`` is the *full-length* power vector (indexed by global
        link index).  Hot loops issuing many small probes against one
        unchanging vector should precompute ``key =
        relative_key(vec, alpha)`` once and pass it in, skipping the
        per-call content digest.
        """
        rows = as_index_array(rows)
        cols = as_index_array(cols)
        if key is None:
            key = self.relative_key(vec, alpha)
        dense = self._dense_for_query(key, self._relative_builder(vec, alpha))
        if dense is not None:
            self.stats.entries_served += rows.size * cols.size
            return dense[np.ix_(rows, cols)]
        return self._relative_block(vec, alpha, rows, cols)

    def relative_colsums(
        self, vec: np.ndarray, alpha: float, active, *, key: Optional[Tuple] = None
    ) -> np.ndarray:
        """``sum_{j in active} R[j, i]`` for each ``i`` in ``active``.

        The row-sum side of Equation (1): the set is feasible
        (noiseless) iff every entry is at most ``1/beta``.  In chunked
        mode the sums are streamed over row blocks and the
        ``|active| x |active|`` matrix is never materialised.
        """
        idx = as_index_array(active)
        if key is None:
            key = self.relative_key(vec, alpha)
        dense = self._dense_for_query(key, self._relative_builder(vec, alpha))
        if dense is not None:
            self.stats.entries_served += idx.size * idx.size
            return dense[np.ix_(idx, idx)].sum(axis=0)
        if not self.chunked:
            # Bounded n: one block, bit-identical to the seed path.
            return self._relative_block(vec, alpha, idx, idx).sum(axis=0)
        sums = np.zeros(idx.size)
        for block in self.iter_blocks(idx):
            sums += self._relative_block(vec, alpha, block, idx).sum(axis=0)
        return sums

    # ------------------------------------------------------------------
    # Affectance kernel  A[i, j] = beta * l_i^alpha / d_ji^alpha
    # ------------------------------------------------------------------
    def _affectance_builder(self, alpha: float, beta: float) -> Callable[[], np.ndarray]:
        return lambda: blocks.affectance_full(self.links, alpha, beta)

    def _affectance_block(
        self, alpha: float, beta: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        a = blocks.affectance_block(self.links, alpha, beta, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return a

    def affectance_submatrix(self, model, rows, cols) -> np.ndarray:
        """``A[i, j]`` for ``i`` in rows (receivers), ``j`` in cols (senders)."""
        rows = as_index_array(rows)
        cols = as_index_array(cols)
        key = ("affectance", float(model.alpha), float(model.beta))
        dense = self._dense_for_query(key, self._affectance_builder(model.alpha, model.beta))
        if dense is not None:
            self.stats.entries_served += rows.size * cols.size
            return dense[np.ix_(rows, cols)]
        return self._affectance_block(model.alpha, model.beta, rows, cols)

