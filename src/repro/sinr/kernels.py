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
* **chunks** when the link set is large (``n > max_dense_links``) or
  when ``force_chunked`` is set: queries and column sums are streamed in
  row blocks of ``block_size`` and no ``n x n`` float64 array is ever
  allocated.

The *inner math* — how each block is actually computed — lives behind
the pluggable :class:`~repro.backend.base.NumericBackend` interface
(``dense-numpy`` / ``blocked-sparse``); the cache keeps
only the orchestration: memoization, lazy promotion, chunk iteration
and statistics.  Backends are bit-identical by contract, so swapping
one never changes a schedule, a measurement or a store key.

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
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    KERNEL_BLOCK_SIZE,
    KERNEL_DENSE_BUDGET_BYTES,
    KERNEL_DENSE_PROMOTE_AFTER,
    KERNEL_MAX_DENSE_LINKS,
)
from repro.links.linkset import LinkSet
from repro.util.parallel import map_blocks_ordered
from repro.util.validation import check_int_min

__all__ = ["KernelCache", "KernelStats", "get_kernel", "power_digest"]

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
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # Locks are not picklable; counters travel, the lock is rebuilt.
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def count_block(self, entries: int) -> None:
        """Record one block evaluation serving ``entries`` entries.

        Blocks may be evaluated from worker threads when
        ``block_workers > 1``, so the counters are bumped under a lock
        to stay exact.
        """
        with self._lock:
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
        Row-block size for chunked evaluation.
    max_dense_links:
        Largest ``n`` for which dense memoization is allowed (>= 1; use
        ``force_chunked=True`` to disable dense memoization entirely).
    force_chunked:
        Never allocate a dense matrix, regardless of ``n``.
    backend:
        Numeric backend name or instance (default ``dense-numpy``); see
        :mod:`repro.backend`.
    block_workers:
        Threads used for independent block evaluations (adjacency tiles,
        chunked column sums).  Default 1 (serial).  Results are consumed
        in deterministic submission order regardless of the worker
        count, so parallel runs stay bit-identical to serial ones.
    """

    def __init__(
        self,
        links: LinkSet,
        *,
        block_size: Optional[int] = None,
        max_dense_links: Optional[int] = None,
        force_chunked: bool = False,
        backend=None,
        block_workers: Optional[int] = None,
    ) -> None:
        from repro.backend import resolve_backend

        self.links = links
        self.backend = resolve_backend(backend)
        self.block_size = check_int_min(
            "block_size",
            KERNEL_BLOCK_SIZE if block_size is None else block_size,
            minimum=1,
        )
        self.max_dense_links = check_int_min(
            "max_dense_links",
            KERNEL_MAX_DENSE_LINKS if max_dense_links is None else max_dense_links,
            minimum=1,
            hint="use force_chunked=True to disable dense memoization entirely",
        )
        self.block_workers = check_int_min(
            "block_workers",
            1 if block_workers is None else block_workers,
            minimum=1,
        )
        self.force_chunked = bool(force_chunked)
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
        return (
            self.force_chunked
            or not self.backend.allows_dense
            or self.n > self.max_dense_links
        )

    def config(self) -> Tuple[int, int, bool, str, int]:
        """The tuple identifying this cache's configuration."""
        return (
            self.block_size,
            self.max_dense_links,
            self.force_chunked,
            self.backend.name,
            self.block_workers,
        )

    def invalidate(self) -> None:
        """Drop every memoized matrix and promotion counter."""
        self._dense.clear()
        self._uses.clear()

    def __repr__(self) -> str:
        mode = "chunked" if self.chunked else "dense"
        return (
            f"KernelCache(n={self.n}, {mode}, block={self.block_size}, "
            f"backend={self.backend.name}, cached={len(self._dense)})"
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
        gap = self.backend.gap_block(self.links, rows, cols)
        self.stats.count_block(rows.size * cols.size)
        return gap

    def srdist_submatrix(self, rows, cols) -> np.ndarray:
        """Sender-receiver distances ``D[j, i] = d(s_j, r_i)``."""
        rows = as_index_array(rows)
        cols = as_index_array(cols)
        return self.backend.srdist_block(self.links, rows, cols)

    # ------------------------------------------------------------------
    # Additive kernel  I[j, i] = min(1, l_j^alpha / d(i, j)^alpha)
    # ------------------------------------------------------------------
    def _additive_builder(self, alpha: float) -> Callable[[], np.ndarray]:
        return lambda: self.backend.additive_full(self.links, alpha)

    def _additive_block(self, alpha: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        m = self.backend.additive_block(self.links, alpha, rows, cols)
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
        """``I(S, i) = sum_{j in S} I[j, i]`` as an O(|S|) query."""
        return self.backend.additive_interference(self, alpha, source, target)

    # ------------------------------------------------------------------
    # Relative-interference kernel  R[j, i] = (P_j/P_i) (l_i/d_ji)^alpha
    # ------------------------------------------------------------------
    def relative_key(self, vec: np.ndarray, alpha: float) -> Tuple:
        """Memo key of the relative kernel for one power vector."""
        return ("relative", float(alpha), power_digest(vec))

    def _relative_builder(self, vec: np.ndarray, alpha: float) -> Callable[[], np.ndarray]:
        return lambda: self.backend.relative_full(self.links, vec, alpha)

    def _relative_block(
        self, vec: np.ndarray, alpha: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        rel = self.backend.relative_block(self.links, vec, alpha, rows, cols)
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
            return self.backend.colsums(dense[np.ix_(idx, idx)])
        if not self.chunked:
            # Bounded n: one block, bit-identical to the seed path.
            return self.backend.colsums(self._relative_block(vec, alpha, idx, idx))
        sums = np.zeros(idx.size)
        blocks = list(self.iter_blocks(idx))

        def partial(block: np.ndarray) -> np.ndarray:
            return self.backend.colsums(self._relative_block(vec, alpha, block, idx))

        # Partials are accumulated strictly in block order (ordered
        # consumption), so the float sum is bit-identical at any
        # worker count.
        for _, part in map_blocks_ordered(partial, blocks, self.block_workers):
            sums += part
        return sums

    # ------------------------------------------------------------------
    # Affectance kernel  A[i, j] = beta * l_i^alpha / d_ji^alpha
    # ------------------------------------------------------------------
    def _affectance_builder(self, alpha: float, beta: float) -> Callable[[], np.ndarray]:
        return lambda: self.backend.affectance_full(self.links, alpha, beta)

    def _affectance_block(
        self, alpha: float, beta: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        a = self.backend.affectance_block(self.links, alpha, beta, rows, cols)
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


def get_kernel(
    links: LinkSet,
    *,
    block_size: Optional[int] = None,
    max_dense_links: Optional[int] = None,
    force_chunked: Optional[bool] = None,
    backend=None,
    block_workers: Optional[int] = None,
) -> KernelCache:
    """The :class:`KernelCache` attached to ``links`` (see
    :meth:`LinkSet.kernel`)."""
    return links.kernel(
        block_size=block_size,
        max_dense_links=max_dense_links,
        force_chunked=force_chunked,
        backend=backend,
        block_workers=block_workers,
    )
