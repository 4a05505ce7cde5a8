"""Cell-local conflict tiles: the one enumeration behind every
conflict-graph build.

Conflicts in ``G_f(L)`` are *local*: links ``i, j`` conflict only when
their gap distance satisfies ``d(i, j) <= l_min * f(l_max / l_min)``
(Appendix A), which is bounded above by the threshold function's
conservative conflict radius ``r``
(:meth:`~repro.conflict.functions.ThresholdFunction.max_radius`).  A
link's midpoint lies within half its length of both endpoints, so the
midpoints of two conflicting links lie within ``r + l_max`` of each
other.  :func:`conflict_tiles` buckets every link's midpoint into a
uniform grid with cells of side ``r + l_max`` and yields one tile per
occupied cell: the cell's links (rows) against every link in the cells
within :data:`CELL_SAFETY_MARGIN` cells of it per axis (cols, a ``5^d``
neighbourhood).  Each link lies in exactly one cell, so no pair
``(i, j)`` is evaluated twice, and every conflicting pair lies in some
tile.

Conservativeness is load-bearing and has two guards:

* cell coordinates are computed as ``floor(x / cell)`` in float64; with
  coordinate magnitudes capped at :data:`MAX_CELLS_PER_AXIS` cells the
  rounding error of the quotient is far below one cell, and the second
  cell of margin absorbs rounding at exact cell boundaries;
* geometries the grid cannot represent safely — a non-finite or
  non-positive radius, coordinates beyond the cap (the 1e154-scale
  adversarial chain instances), or a cell-key space that would overflow
  ``int64`` packing — get one all-pairs tile instead, as does a
  deployment that a single neighbourhood covers.

Every tile is split so that neither side exceeds ``block_size``
indices, so no float temporary of the build exceeds ``block_size**2``
entries.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["conflict_tiles", "CELL_SAFETY_MARGIN", "MAX_CELLS_PER_AXIS"]

#: Largest coordinate magnitude, measured in cells, the grid will
#: represent.  Below this the float64 quotient ``x / cell`` has absolute
#: error well under one cell, so the safety margin below is sufficient;
#: beyond it the build falls back to one all-pairs tile.
MAX_CELLS_PER_AXIS: int = 2**30

#: Neighbourhood reach, in cells per axis.  One cell suffices in exact
#: arithmetic (cell side >= the midpoint distance of any conflicting
#: pair); the second absorbs floor-rounding at exact cell boundaries.
CELL_SAFETY_MARGIN: int = 2

#: Largest packed cell-key space; beyond it ``int64`` keys could wrap.
_MAX_CELL_KEYS: int = 2**62


def conflict_tiles(links, threshold, block_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(rows, cols)`` global-index tiles holding every
    conflicting pair of ``ConflictGraph(links, threshold)``.

    Each ordered pair ``(i, j)`` lies in at most one tile, both index
    arrays of a tile are ascending, and neither has more than
    ``block_size`` entries.  A tile spanning all ``n`` rows and all
    ``n`` cols is therefore the whole index square, in order.
    """
    grid = _packed_cells(links, threshold)
    if grid is None:
        everything = np.arange(len(links))
        tiles: Iterable[Tuple[np.ndarray, np.ndarray]] = [(everything, everything)]
    else:
        tiles = _cell_tiles(*grid)
    for rows, cols in tiles:
        yield from _capped(rows, cols, block_size)


def _capped(rows: np.ndarray, cols: np.ndarray, block_size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``rows x cols`` split into tiles of at most ``block_size`` per
    side; when ``cols is rows`` the diagonal tiles keep that identity."""

    def split(idx: np.ndarray) -> List[np.ndarray]:
        return [idx[start : start + block_size] for start in range(0, idx.size, block_size)]

    row_blocks = split(rows)
    col_blocks = row_blocks if cols is rows else split(cols)
    for row_block in row_blocks:
        for col_block in col_blocks:
            yield row_block, col_block


def _packed_cells(links, threshold) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Each link's midpoint cell packed into one ``int64`` key, and the
    key offsets of a cell's neighbourhood; ``None`` when one all-pairs
    tile must do instead."""
    lengths = links.lengths
    radius = float(threshold.max_radius(lengths))
    if not (np.isfinite(radius) and radius > 0):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (links.senders + links.receivers) / (2.0 * (radius + float(lengths.max())))
    if not float(np.abs(scaled).max()) <= MAX_CELLS_PER_AXIS:  # also NaN and inf
        return None
    margin = CELL_SAFETY_MARGIN
    cells = np.floor(scaled).astype(np.int64)
    low = cells.min(axis=0)
    occupied_spans = (cells.max(axis=0) - low + 1).tolist()
    if max(occupied_spans) <= 2 * margin + 1:
        return None  # one neighbourhood would cover the whole deployment
    # Pack each cell, in a margin-padded non-negative box, into one
    # int64 key (row-major).  The pad keeps every neighbour cell inside
    # the box, so packing stays injective and never wraps.
    spans = [span + 2 * margin for span in occupied_spans]
    if math.prod(spans) > _MAX_CELL_KEYS:
        return None
    dim = len(spans)
    mult = np.ones(dim, dtype=np.int64)
    for axis in range(dim - 2, -1, -1):
        mult[axis] = mult[axis + 1] * spans[axis + 1]
    reach = np.arange(-margin, margin + 1)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*([reach] * dim), indexing="ij")], axis=1)
    return (cells - (low - margin)) @ mult, offsets @ mult


def _cell_tiles(keys: np.ndarray, offsets: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """One ``(members, neighbourhood)`` tile per occupied cell key, the
    neighbourhood being every link whose key is the cell's plus one of
    ``offsets``."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    counts = np.diff(np.r_[starts, keys.size])
    occupied = sorted_keys[starts]
    wanted = occupied[:, None] + offsets[None, :]
    position = np.minimum(np.searchsorted(occupied, wanted), occupied.size - 1)
    cell, slot = np.nonzero(occupied[position] == wanted)
    neighbour = position[cell, slot]
    # The members of every (cell, neighbour) pair, concatenated: a
    # ragged arange over the neighbours' runs of ``order``.
    sizes = counts[neighbour]
    ends = np.cumsum(sizes)
    near = order[np.arange(ends[-1]) - np.repeat(ends - sizes - starts[neighbour], sizes)]
    near_ends = ends[np.flatnonzero(np.r_[cell[1:] != cell[:-1], True])]
    near_start = 0
    for start, count, near_end in zip(starts.tolist(), counts.tolist(), near_ends.tolist()):
        yield order[start : start + count], np.sort(near[near_start:near_end])
        near_start = near_end
