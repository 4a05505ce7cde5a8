"""Tests for the cell-local conflict tiles (repro.geometry.spatial).

The cell-tile build is checked against the all-pairs builds it replaced,
kept in ``tests/oracles/conflict_allpairs.py``:

* **identical** — the CSR arrays are byte-equal to the every-tile
  oracle's and the dense view to the dense formula, on both backends,
  over all three threshold functions, uniform / clustered / 1-D
  placements and block sizes 1..64 (a hypothesis property);
* **covering** — every oracle edge lies in some emitted tile, and no
  pair lies in two;
* **bounded** — no tile has more than ``block_size`` rows or cols, and
  the kernel evaluates exactly the tiles' entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.conflict_allpairs import dense_adjacency, every_tile_adjacency, gap_matrix
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
)
from repro.conflict.graph import ConflictGraph
from repro.geometry.spatial import conflict_tiles
from repro.links.linkset import LinkSet

THRESHOLDS = [
    ConstantThreshold(1.5),
    PowerLawThreshold(1.0, 0.3),
    LogThreshold(1.0, 3.0),
]
BACKENDS = ["dense-numpy", "blocked-sparse"]


def _deployment(n: int, seed: int, topology: str) -> LinkSet:
    rng = np.random.default_rng(seed)
    if topology == "line":
        senders = rng.uniform(0.0, 400.0, size=(n, 1))
        signs = rng.choice([-1.0, 1.0], size=(n, 1))
        return LinkSet(senders, senders + signs * rng.uniform(0.2, 2.0, size=(n, 1)))
    if topology == "clustered":
        centers = rng.uniform(0.0, 200.0, size=(max(2, n // 20), 2))
        senders = centers[rng.integers(0, centers.shape[0], size=n)]
        senders = senders + rng.normal(0.0, 2.0, size=(n, 2))
    else:
        senders = rng.uniform(0.0, 100.0, size=(n, 2))
    offsets = rng.uniform(0.2, 2.0, size=(n, 1)) * _unit_dirs(rng, n)
    return LinkSet(senders, senders + offsets)


def _unit_dirs(rng, n: int) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _tile_list(links, threshold, block_size):
    return list(conflict_tiles(links, threshold, block_size))


def _assert_equals_oracle(graph: ConflictGraph, links: LinkSet, threshold) -> None:
    """``graph`` is byte-equal to both all-pairs builds over a fresh copy
    of ``links`` with the same kernel configuration."""
    kernel = graph.links.kernel()
    plain = LinkSet(links.senders, links.receivers)
    plain.kernel(block_size=kernel.block_size, backend="blocked-sparse" if kernel.sparse else None)
    indptr, indices = every_tile_adjacency(plain, threshold)
    assert graph.indptr.tobytes() == indptr.tobytes()
    assert graph.indices.tobytes() == indices.tobytes()
    assert graph.adjacency.tobytes() == dense_adjacency(plain, threshold).tobytes()


class TestMaxRadius:
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounds_every_pair(self, threshold, seed):
        """max_radius dominates l_min * f(l_max/l_min) for every pair."""
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(0.05, 50.0, size=20)
        bound = threshold.max_radius(lengths)
        li = lengths[:, None]
        lj = lengths[None, :]
        lmin = np.minimum(li, lj)
        lmax = np.maximum(li, lj)
        pair_radii = lmin * threshold(lmax / lmin)
        assert np.all(pair_radii <= bound + 1e-9 * bound)

    def test_constant_is_gamma_lmax(self):
        lengths = np.array([1.0, 4.0, 2.0])
        assert ConstantThreshold(2.0).max_radius(lengths) == 8.0

    def test_power_law_independent_of_diversity(self):
        f = PowerLawThreshold(1.0, 0.5)
        assert f.max_radius(np.array([1e-6, 10.0])) == 10.0


class TestCellTilesEqualOracle:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 60),
        block_size=st.integers(1, 64),
        threshold=st.sampled_from(THRESHOLDS),
        topology=st.sampled_from(["uniform", "clustered", "line"]),
        backend=st.sampled_from(BACKENDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_cell_build_equals_oracle(self, seed, n, block_size, threshold, topology, backend):
        links = _deployment(n, seed, topology)
        links.kernel(backend=backend, block_size=block_size)
        _assert_equals_oracle(ConflictGraph(links, threshold), links, threshold)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    @pytest.mark.parametrize("topology", ["uniform", "clustered", "line"])
    def test_multi_cell_build_equals_oracle(self, backend, threshold, topology):
        # 400 links over a wide area: many occupied cells, and tiles
        # split at block_size 32.
        links = _deployment(400, 7, topology)
        links.kernel(backend=backend, block_size=32)
        _assert_equals_oracle(ConflictGraph(links, threshold), links, threshold)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 80),
        block_size=st.integers(1, 64),
        threshold=st.sampled_from(THRESHOLDS),
        topology=st.sampled_from(["uniform", "clustered", "line"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiles_cover_every_oracle_edge_once(self, seed, n, block_size, threshold, topology):
        """Every oracle edge lies in a tile, no pair lies in two, and no
        tile is wider than block_size or out of order."""
        links = _deployment(n, seed, topology)
        covered = np.zeros((n, n), dtype=int)
        for rows, cols in _tile_list(links, threshold, block_size):
            assert 0 < rows.size <= block_size and 0 < cols.size <= block_size
            assert np.all(np.diff(rows) > 0) and np.all(np.diff(cols) > 0)
            covered[np.ix_(rows, cols)] += 1
        assert covered.max() == 1
        missed = dense_adjacency(links, threshold) & (covered == 0)
        assert not missed.any(), f"edges outside every tile: {np.argwhere(missed)}"


def _compact(n: int = 30) -> LinkSet:
    """Links within a box narrower than one cell of their radius."""
    rng = np.random.default_rng(3)
    senders = rng.uniform(0.0, 3.0, size=(n, 2))
    return LinkSet(senders, senders + rng.uniform(0.5, 2.0, size=(n, 1)) * _unit_dirs(rng, n))


class TestFallbacks:
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    def test_one_neighbourhood_takes_one_all_pairs_tile(self, threshold):
        """Links that a single 5x5 neighbourhood covers get one tile over
        all of them."""
        links = _compact()
        (rows, cols), = _tile_list(links, threshold, 1024)
        assert rows is cols and rows.tolist() == list(range(30))
        _assert_equals_oracle(ConflictGraph(links, threshold), links, threshold)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dense_kernels_serve_the_whole_gap_from_the_memo(self, backend):
        """Conflict graphs over one link set share its memoized gap
        matrix; a sparse kernel keeps computing blocks."""
        links = _compact()
        kernel = links.kernel(backend=backend)
        everything = np.arange(30)
        gap = kernel.gap_submatrix(everything, everything)
        assert (gap is links.link_distances()) is (backend == "dense-numpy")
        assert gap.tobytes() == gap_matrix(links).tobytes()
        assert kernel.stats.entries_served == 900

    def test_all_pairs_tile_is_capped(self):
        tiles = _tile_list(_compact(), ConstantThreshold(1.5), 8)
        assert [(r.size, c.size) for r, c in tiles] == [
            (a, b) for a in (8, 8, 8, 6) for b in (8, 8, 8, 6)
        ]

    def test_unrepresentable_chain_falls_back(self):
        """1e154-scale chains exceed the grid's precision-safe range:
        one all-pairs tile, and the oracle's edges."""
        coords = np.array([[0.0], [1e150], [1e154]])
        links = LinkSet(coords, coords + np.array([[1.0], [1e140], [1e144]]))
        tiles = _tile_list(links, ConstantThreshold(1.0), 2)
        assert [(r.tolist(), c.tolist()) for r, c in tiles] == [
            ([0, 1], [0, 1]), ([0, 1], [2]), ([2], [0, 1]), ([2], [2])
        ]
        _assert_equals_oracle(ConflictGraph(links, ConstantThreshold(1.0)), links, ConstantThreshold(1.0))

    @pytest.mark.parametrize("radius", [0.0, np.inf, np.nan])
    def test_unusable_radius_falls_back(self, radius):
        class Unbounded(ConstantThreshold):
            def max_radius(self, lengths):
                return radius

        links = _deployment(40, 1, "uniform")
        (rows, cols), = _tile_list(links, Unbounded(1.5), 64)
        assert rows is cols and rows.size == 40


class TestEntries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_evaluates_exactly_the_tiles(self, backend):
        """On a localised deployment the build evaluates the tiles'
        entries and nothing else: far fewer than n^2."""
        n, block_size = 600, 64
        links = _deployment(n, 17, "clustered")
        links.kernel(backend=backend, block_size=block_size)
        graph = ConflictGraph(links, ConstantThreshold(1.5))
        tiles = _tile_list(links, ConstantThreshold(1.5), block_size)
        stats = links.kernel().stats
        assert stats.entries_served == sum(r.size * c.size for r, c in tiles)
        assert stats.block_evals == len(tiles)
        assert stats.entries_served < n * n // 4
        assert stats.dense_builds == 0
        _assert_equals_oracle(graph, links, ConstantThreshold(1.5))
