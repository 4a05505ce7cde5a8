"""The all-pairs conflict-graph builds: the references for the
reach-driven pair build of :class:`repro.conflict.graph.ConflictGraph`.

Both are ``ConflictGraph``'s earlier paths, kept verbatim:

* :func:`dense_adjacency` is the dense gap-matrix formula
  (:func:`gap_matrix`, the full gap matrix as ``LinkSet`` computed it,
  its distances from the ``einsum`` formula of
  :mod:`oracles.distances`),
  the build for link sets of up to ``KERNEL_MAX_DENSE_LINKS`` links on
  a dense kernel;
* :func:`every_tile_adjacency` evaluates every row-block x col-block
  tile of the kernel's ``block_size`` with
  :func:`repro.backend.blocks.gap_block`, counts each tile in the
  kernel's statistics and assembles the edges as CSR
  ``(indptr, indices)`` arrays: the build for link sets too large for
  an ``n x n`` float matrix.

``tests/test_spatial.py`` and ``benchmarks/bench_backend_scaling.py``
assert that the pair build returns the same bytes as these.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from oracles.distances import einsum_distances
from repro.backend.blocks import gap_block
from repro.conflict.functions import ThresholdFunction
from repro.links.linkset import LinkSet


def gap_matrix(links: LinkSet) -> np.ndarray:
    """The full gap matrix ``d(i, j)``: the minimum over the four
    sender/receiver distances, 0 on the diagonal."""
    ss = einsum_distances(links.senders, links.senders)
    rr = einsum_distances(links.receivers, links.receivers)
    sr = einsum_distances(links.senders, links.receivers)
    gap = np.minimum(np.minimum(ss, rr), np.minimum(sr, sr.T))
    np.fill_diagonal(gap, 0.0)
    return gap


def dense_adjacency(links: LinkSet, threshold: ThresholdFunction) -> np.ndarray:
    """The dense boolean adjacency from the full gap matrix."""
    lengths = links.lengths
    gap = gap_matrix(links)
    lmin = np.minimum(lengths[:, None], lengths[None, :])
    lmax = np.maximum(lengths[:, None], lengths[None, :])
    adjacent = gap <= lmin * threshold(lmax / lmin)
    np.fill_diagonal(adjacent, False)
    return adjacent


def _adjacent_block(links, threshold, kernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean conflict block for global ``rows x cols`` indices."""
    lengths = links.lengths
    gap = gap_block(links, rows, cols)
    kernel.stats.count_block(rows.size * cols.size)
    lmin = np.minimum(lengths[rows][:, None], lengths[cols][None, :])
    lmax = np.maximum(lengths[rows][:, None], lengths[cols][None, :])
    block = gap <= lmin * threshold(lmax / lmin)
    block[rows[:, None] == cols[None, :]] = False
    return block


def every_tile_adjacency(
    links: LinkSet, threshold: ThresholdFunction
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``block_size`` tile of the link set's kernel, assembled as
    int64 CSR ``(indptr, indices)`` arrays."""
    kernel = links.kernel()
    n = kernel.n
    blocks = list(kernel.iter_blocks(np.arange(n)))
    tiles = ((rows, cols) for rows in blocks for cols in blocks)

    def block_fn(rows, cols):
        return _adjacent_block(links, threshold, kernel, rows, cols)

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
        order = np.lexsort((edge_cols, edge_rows))
        edge_rows = edge_rows[order]
        indices = edge_cols[order]
        counts = np.bincount(edge_rows, minlength=n).astype(np.int64)
    else:
        indices = np.empty(0, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices
