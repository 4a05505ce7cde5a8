"""Grid-bucket spatial index + conflict-candidate generation.

Conflicts in ``G_f(L)`` are *local*: links ``i, j`` conflict only when
their gap distance satisfies ``d(i, j) <= l_min * f(l_max / l_min)``
(Appendix A), which is bounded above by the threshold function's
conservative conflict radius
:meth:`~repro.conflict.functions.ThresholdFunction.max_radius`.
Bucketing link endpoints into a uniform grid whose cells are at least
one radius wide therefore localises every possible edge: the closest
endpoints of two conflicting links land in cells at most one apart per
axis.  That turns the all-pairs ``O(n^2)`` conflict-graph build into a
near-pair enumeration — the chunked spatial-pipeline shape of
nbodykit-style codes.

Two layers live here:

* :class:`GridBucketIndex` — a plain uniform-grid bucket index over a
  point cloud (cell membership, neighbourhood queries).  Generally
  useful; also the geometric core of the candidate generator.
* :class:`GridCandidateGenerator` — the conflict-graph *candidate
  source*: links are sorted into a spatially coherent order (by sender
  cell), partitioned into row blocks, and only block pairs whose
  expanded grid cells overlap are yielded via :meth:`pairs`.
  :func:`repro.backend.sparse.assemble_adjacency` evaluates exactly
  those tiles; every skipped tile provably contains no edge, so the
  assembled adjacency is byte-identical to the unpruned build.

Conservativeness is load-bearing and has two guards:

* cell coordinates are computed as ``floor(x / cell_size)`` in float64;
  with coordinate magnitudes capped at :data:`MAX_CELLS_PER_AXIS` cells
  the rounding error of the quotient is far below one cell, and the
  neighbourhood is expanded by :data:`CELL_SAFETY_MARGIN` (two) cells
  per axis so even exact-boundary pairs stay candidates;
* geometries the grid cannot represent safely — non-finite or
  non-positive radius, coordinates beyond the cap (the 1e154-scale
  adversarial chain instances), or a cell-key space that would overflow
  ``int64`` packing — make the factory return ``None`` and the caller
  falls back to the exact unpruned build.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError

__all__ = [
    "GridBucketIndex",
    "GridCandidateGenerator",
    "conflict_candidates",
    "MAX_CELLS_PER_AXIS",
]

#: Largest coordinate magnitude, measured in cells, the grid will
#: represent.  Below this the float64 quotient ``x / cell_size`` has
#: absolute error well under one cell, so the safety margin below is
#: sufficient; beyond it the factory declines and callers fall back to
#: the unpruned build.
MAX_CELLS_PER_AXIS: int = 2**30

#: Neighbourhood expansion, in cells per axis.  One cell suffices in
#: exact arithmetic (cell_size >= radius); the second absorbs
#: floor-rounding at exact cell boundaries.
CELL_SAFETY_MARGIN: int = 2


def _cell_coords(points: np.ndarray, cell_size: float) -> Optional[np.ndarray]:
    """Integer grid coordinates of ``points``, or ``None`` when the grid
    would lose precision (coordinates beyond the per-axis cell cap)."""
    scaled = points / cell_size
    if not np.all(np.isfinite(scaled)):
        return None
    if scaled.size and float(np.abs(scaled).max()) > MAX_CELLS_PER_AXIS:
        return None
    return np.floor(scaled).astype(np.int64)


class GridBucketIndex:
    """Uniform-grid bucket index over an ``(m, d)`` point cloud.

    Parameters
    ----------
    points:
        Coordinate array, one row per point.
    cell_size:
        Edge length of the (hyper-)cubic cells; must be positive and
        finite, and the coordinates must fit within
        :data:`MAX_CELLS_PER_AXIS` cells of the origin.
    """

    def __init__(self, points, cell_size: float) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            raise GeometryError("GridBucketIndex needs at least one point")
        if not (np.isfinite(cell_size) and cell_size > 0):
            raise GeometryError(
                f"cell_size must be positive and finite, got {cell_size}"
            )
        cells = _cell_coords(pts, float(cell_size))
        if cells is None:
            raise GeometryError(
                "coordinates exceed the grid's precision-safe range "
                f"(+-{MAX_CELLS_PER_AXIS} cells of {cell_size})"
            )
        self.points = pts
        self.cell_size = float(cell_size)
        self.cells = cells
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        for index, cell in enumerate(map(tuple, cells.tolist())):
            buckets.setdefault(cell, []).append(index)
        self._buckets = {
            cell: np.asarray(members, dtype=np.int64)
            for cell, members in buckets.items()
        }

    @property
    def n_cells(self) -> int:
        """Number of occupied cells."""
        return len(self._buckets)

    def cell_of(self, point) -> Tuple[int, ...]:
        """Grid cell containing ``point``."""
        coords = _cell_coords(
            np.atleast_2d(np.asarray(point, dtype=float)), self.cell_size
        )
        if coords is None:
            raise GeometryError("point outside the grid's precision-safe range")
        return tuple(coords[0].tolist())

    def members(self, cell: Sequence[int]) -> np.ndarray:
        """Point indices bucketed in ``cell`` (empty when unoccupied)."""
        return self._buckets.get(tuple(int(c) for c in cell), np.empty(0, dtype=np.int64))

    def neighborhood(self, cell: Sequence[int], reach: int = 1) -> np.ndarray:
        """Sorted point indices within ``reach`` cells of ``cell`` per axis."""
        base = tuple(int(c) for c in cell)
        dim = len(base)
        grids = np.meshgrid(*([np.arange(-reach, reach + 1)] * dim), indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=1)
        found = [
            self.members(tuple(int(b + o) for b, o in zip(base, off)))
            for off in offsets
        ]
        merged = np.concatenate([f for f in found if f.size] or [np.empty(0, dtype=np.int64)])
        return np.unique(merged)

    def __repr__(self) -> str:
        return (
            f"GridBucketIndex(n={self.points.shape[0]}, "
            f"cells={self.n_cells}, cell_size={self.cell_size:g})"
        )


class GridCandidateGenerator:
    """Spatially pruned block-pair source for conflict-graph assembly.

    Built via :meth:`build` (or the :func:`conflict_candidates`
    factory).  Links are ordered by the packed grid cell of their
    sender (a spatially coherent traversal), partitioned into blocks of
    ``block_size``, and a block pair ``(a, b)`` is *candidate* iff some
    cell occupied by an endpoint of ``a``, expanded by
    :data:`CELL_SAFETY_MARGIN` cells per axis, is also occupied by an
    endpoint of ``b``.  Because the cell size equals the conservative
    conflict radius, every conflicting link pair lies in some candidate
    block pair — the conservativeness contract locked by the
    hypothesis property tests.

    The relation is symmetric (the offset set is), so the assembled
    adjacency stays symmetric tile-by-tile.
    """

    def __init__(
        self,
        n: int,
        cell_size: float,
        blocks: List[np.ndarray],
        candidates: List[List[int]],
    ) -> None:
        self.n = int(n)
        self.cell_size = float(cell_size)
        self._blocks = blocks
        self._candidates = candidates

    # ------------------------------------------------------------------
    @staticmethod
    def build(links, radius: float, block_size: int) -> Optional["GridCandidateGenerator"]:
        """Build a generator for ``links``, or ``None`` when the grid
        cannot represent the geometry safely (caller falls back to the
        exact unpruned build)."""
        if not (np.isfinite(radius) and radius > 0):
            return None
        n = len(links)
        cell = float(radius)
        scells = _cell_coords(links.senders, cell)
        rcells = _cell_coords(links.receivers, cell)
        if scells is None or rcells is None:
            return None
        dim = scells.shape[1]
        margin = CELL_SAFETY_MARGIN
        # Normalise cell coordinates to a margin-padded non-negative box
        # and pack each cell into one int64 key (row-major).  The pad
        # keeps expanded neighbour cells inside the box, so packing
        # stays injective and never wraps.
        lo = np.minimum(scells.min(axis=0), rcells.min(axis=0)) - margin
        hi = np.maximum(scells.max(axis=0), rcells.max(axis=0)) + margin
        spans = [int(s) for s in (hi - lo + 1).tolist()]
        total = 1
        for span in spans:
            total *= span
        if total > 2**62:
            return None
        mult = np.ones(dim, dtype=np.int64)
        for axis in range(dim - 2, -1, -1):
            mult[axis] = mult[axis + 1] * spans[axis + 1]
        skeys = (scells - lo) @ mult
        rkeys = (rcells - lo) @ mult
        grids = np.meshgrid(*([np.arange(-margin, margin + 1)] * dim), indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
        offkeys = offsets @ mult

        order = np.argsort(skeys, kind="stable")
        blocks = [order[start : start + block_size] for start in range(0, n, block_size)]
        occupied = [np.unique(np.concatenate([skeys[b], rkeys[b]])) for b in blocks]
        cell_to_blocks: Dict[int, List[int]] = {}
        for block_id, occ in enumerate(occupied):
            for key in occ.tolist():
                cell_to_blocks.setdefault(key, []).append(block_id)
        candidates: List[List[int]] = []
        for occ in occupied:
            expanded = np.unique((occ[:, None] + offkeys[None, :]).ravel())
            near: set = set()
            for key in expanded.tolist():
                hit = cell_to_blocks.get(key)
                if hit:
                    near.update(hit)
            candidates.append(sorted(near))
        return GridCandidateGenerator(n, cell, blocks, candidates)

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of row blocks."""
        return len(self._blocks)

    @property
    def pair_count(self) -> int:
        """Candidate block pairs (tiles that will be evaluated)."""
        return sum(len(c) for c in self._candidates)

    @property
    def total_pairs(self) -> int:
        """All block pairs — what an unpruned tile build evaluates."""
        return self.num_blocks**2

    def pairs(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield candidate ``(rows, cols)`` global-index block pairs, in
        deterministic (row-block, col-block) order."""
        for block_id, near in enumerate(self._candidates):
            rows = self._blocks[block_id]
            for other in near:
                yield rows, self._blocks[other]

    def __repr__(self) -> str:
        return (
            f"GridCandidateGenerator(n={self.n}, blocks={self.num_blocks}, "
            f"tiles={self.pair_count}/{self.total_pairs})"
        )


def conflict_candidates(links, threshold, *, block_size: int) -> Optional[GridCandidateGenerator]:
    """Grid-bucket candidate source for ``ConflictGraph(links, threshold)``.

    Returns ``None`` when spatial pruning cannot be applied safely
    (non-finite or non-positive conflict radius, precision-unsafe
    coordinate scales) — callers then run the exact unpruned build.
    """
    radius = float(threshold.max_radius(links.lengths))
    if not (np.isfinite(radius) and radius > 0):
        return None
    return GridCandidateGenerator.build(links, radius, int(block_size))
