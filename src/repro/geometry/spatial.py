"""Reach-driven conflict candidates: the one enumeration behind every
conflict-graph build.

Conflicts in ``G_f(L)`` are *local*: links ``i, j`` conflict only when
their gap distance satisfies ``d(i, j) <= l_min * f(l_max / l_min)``
(Appendix A).  Order the links by (length, index).  For every link ``j``
shorter than ``i`` in that order the right side is at most ``i``'s
*reach* ``rho_i``
(:meth:`~repro.conflict.functions.ThresholdFunction.reach`).  A link's
midpoint lies within half its length of both endpoints, so the
midpoints of a conflicting pair lie within ``rho_i + l_i`` of each
other, where ``i`` is the longer link.

:func:`candidate_pairs` buckets every midpoint into one uniform grid
whose cell side is the median reach, doubled while the scanned boxes
would exceed a row budget (:data:`MAX_MEAN_BOX_WIDTH`; a link far
longer than the median would otherwise scan a box of billions of
cells).  Each link scans the cells within its scan radius
``rho_i + l_i`` plus one margin cell per side, and keeps the links
there that are shorter than it in (length, index) order.  So, for any
cell side:

* every unordered pair comes out at most once -- it has one longer
  link, and the links of a scanned box are read from disjoint runs of
  distinct cells;
* every conflicting pair comes out -- cell coordinates are
  ``floor(x / cell)`` in float64, and with coordinate magnitudes capped
  at :data:`MAX_CELLS_PER_AXIS` cells the rounding error of every
  quotient is far below one cell, which the margin cell absorbs.

Geometries the grid cannot represent safely -- a non-finite reach,
coordinates beyond the cap (the 1e154-scale adversarial chain
instances), or a cell-key space that would overflow ``int64`` packing
-- get a chunked enumeration of all pairs instead.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["candidate_pairs", "MAX_CELLS_PER_AXIS", "MAX_MEAN_BOX_WIDTH"]

#: Largest coordinate magnitude, measured in cells, the grid will
#: represent.  Below this the float64 quotient ``x / cell`` has absolute
#: error well under one cell, so one margin cell is sufficient; beyond
#: it the build falls back to enumerating all pairs.
MAX_CELLS_PER_AXIS: int = 2**30

#: Largest packed cell-key space; beyond it ``int64`` keys could wrap.
_MAX_CELL_KEYS: int = 2**62

#: The scanned boxes may hold at most ``n * MAX_MEAN_BOX_WIDTH**(d-1)``
#: rows in all, as if each were at most this many cells wide on every
#: axis but the last.  A box row is one key range of the enumeration,
#: so the bound keeps its bookkeeping ``O(n)``; the cell is doubled
#: until it holds.  Under ``G_gamma`` a link of the median length scans
#: a box about ``2 (1 + 1/gamma) + 3`` cells wide, 7 at ``gamma = 1``,
#: so only a wide spread of lengths or a ``gamma`` below about 0.2
#: coarsens the grid.
MAX_MEAN_BOX_WIDTH: int = 16

#: Runs of candidate links: per run its owner (the longer link), start
#: and length, and the permutation of links the starts index.
_Runs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def candidate_pairs(
    links, reach: np.ndarray, max_pairs: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield aligned, non-empty ``(longer, shorter)`` index arrays, at
    most ``max_pairs`` pairs each, holding every pair of links whose
    midpoints lie within ``reach[i] + l_i`` of each other, ``i`` being
    the longer link in (length, index) order.

    Every unordered pair appears at most once over all chunks, with
    ``shorter`` before ``longer`` in that order, so
    ``lengths[shorter] <= lengths[longer]``.
    """
    by_length = np.argsort(links.lengths, kind="stable")
    # From here on a link is named by its rank in (length, index)
    # order, so a link is shorter than another iff its rank is smaller.
    runs = _cell_runs(links, np.asarray(reach, dtype=float)[by_length], by_length)
    if runs is None:
        # Every pair: rank a against ranks 0 .. a-1.
        ranks = np.arange(by_length.size)
        runs = (ranks, np.zeros_like(ranks), ranks, ranks)
    for longer, shorter in _expand(*runs, max_pairs):
        keep = shorter < longer
        if keep.any():
            yield by_length[longer[keep]], by_length[shorter[keep]]


def _cell_runs(links, reach: np.ndarray, by_length: np.ndarray) -> Optional[_Runs]:
    """Each link's scanned box as runs of the links sorted by cell key,
    links named by rank (``by_length`` maps rank to link, ``reach`` is
    in rank order); ``None`` when the grid cannot represent the
    geometry."""
    scan = reach + links.lengths[by_length]
    if not np.all(np.isfinite(scan)):
        return None
    with np.errstate(over="ignore"):
        doubled = links.senders[by_length] + links.receivers[by_length]
    dim = doubled.shape[1]
    # The median reach, by partition: np.median imports numpy.ma.
    cell = float(np.partition(reach, reach.size // 2)[reach.size // 2])
    while True:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scaled = doubled / (2.0 * cell)
            radius = (scan / cell)[:, None]
        if not float(np.abs(scaled).max()) <= MAX_CELLS_PER_AXIS:  # also NaN and inf
            return None
        cells = np.floor(scaled)
        low = cells.min(axis=0)
        high = cells.max(axis=0)
        # The scanned box: the scan radius plus one margin cell per side,
        # clipped to the occupied cells (which keeps huge radii in range).
        lo = (np.clip(np.floor(scaled - radius) - 1, low, high) - low).astype(np.int64)
        hi = (np.clip(np.floor(scaled + radius) + 1, low, high) - low).astype(np.int64)
        # One key range per row of the box: every combination of the
        # leading axes, with the last axis contiguous in key order.
        width = hi[:, :-1] - lo[:, :-1] + 1
        rows = width.prod(axis=1)
        # A link far longer than the median scans many rows: coarsen
        # until they fit the budget.  With the cell beyond every
        # coordinate each axis has at most two cells, which fits.
        if float(rows.sum(dtype=float)) <= MAX_MEAN_BOX_WIDTH ** (dim - 1) * rows.size:
            break
        cell *= 2.0
    spans = (high - low + 1).astype(np.int64)
    if math.prod(spans.tolist()) > _MAX_CELL_KEYS:
        return None
    # Pack each cell, relative to the lowest occupied one, into one
    # int64 key (row-major, the last axis fastest).
    mult = np.ones(dim, dtype=np.int64)
    for axis in range(dim - 2, -1, -1):
        mult[axis] = mult[axis + 1] * spans[axis + 1]
    keys = (cells - low).astype(np.int64) @ mult
    by_key = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_key]
    owner = np.repeat(np.arange(len(keys)), rows)
    ordinal = np.arange(owner.size) - np.repeat(np.cumsum(rows) - rows, rows)
    base = np.zeros(owner.size, dtype=np.int64)
    for axis in range(dim - 2, -1, -1):
        ordinal, offset = np.divmod(ordinal, width[owner, axis])
        base += (lo[owner, axis] + offset) * mult[axis]
    first = np.searchsorted(sorted_keys, base + lo[owner, -1], side="left")
    last = np.searchsorted(sorted_keys, base + hi[owner, -1], side="right")
    return owner, first, last - first, by_key


def _expand(
    owners: np.ndarray, starts: np.ndarray, counts: np.ndarray, perm: np.ndarray, max_pairs: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The runs' ``(owner, perm[start + k])`` pairs, ``k < count``, in
    chunks of at most ``max_pairs``: runs are cut at every multiple of
    ``max_pairs`` of the concatenated positions."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return
    begins = ends - counts
    cuts = np.sort(np.concatenate([begins[counts > 0], np.arange(max_pairs, total, max_pairs)]))
    cuts = cuts[np.r_[True, cuts[1:] != cuts[:-1]]]
    run = np.searchsorted(ends, cuts, side="right")
    sizes = np.diff(np.r_[cuts, total])
    offsets = starts[run] + (cuts - begins[run])
    bounds = np.searchsorted(cuts, np.arange(0, total + max_pairs, max_pairs))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        size = sizes[a:b]
        piece_ends = np.cumsum(size)
        position = np.arange(piece_ends[-1]) - np.repeat(piece_ends - size - offsets[a:b], size)
        yield np.repeat(owners[run[a:b]], size), perm[position]
