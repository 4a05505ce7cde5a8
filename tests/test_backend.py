"""Tests for the numeric-backend layer (``repro.backend``): the block
functions, the ``sparse`` bit, and conflict graphs that hold the same
CSR arrays under either backend."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.conflict_allpairs import gap_matrix
from oracles.dense_full import additive_full, affectance_full
from oracles.relative_oneshot import relative_block as oneshot_relative_block
from repro.backend import DEFAULT_BACKEND, blocks
from repro.conflict.graph import ConflictGraph
from repro.conflict.functions import ConstantThreshold
from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.scheduling.builder import ScheduleBuilder
from repro.sinr.kernels import KernelCache
from repro.sinr.model import SINRModel
from repro.sinr.powercontrol import spectral_radius


def _random_links(n: int, rng: int = 0) -> LinkSet:
    """n random short links spread over a square (no shared nodes)."""
    gen = np.random.default_rng(rng)
    side = 2.0 * np.sqrt(n)
    senders = gen.uniform(0.0, side, size=(n, 2))
    angles = gen.uniform(0.0, 2 * np.pi, size=n)
    lengths = gen.uniform(0.5, 1.5, size=n)
    offsets = lengths[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return LinkSet(senders, senders + offsets)


def _line_links(n: int) -> LinkSet:
    """1-D links (exercises the overflow-safe abs() distance path)."""
    xs = np.cumsum(np.linspace(1.0, 2.0, 2 * n))
    return LinkSet(xs[0::2].reshape(-1, 1), xs[1::2].reshape(-1, 1))


# ----------------------------------------------------------------------
# Backend names
# ----------------------------------------------------------------------
class TestBackendNames:
    @pytest.mark.parametrize(
        "backend,sparse", [(None, False), (DEFAULT_BACKEND, False), ("blocked-sparse", True)]
    )
    def test_name_sets_the_sparse_bit(self, backend, sparse):
        assert KernelCache(_random_links(4), backend=backend).sparse is sparse

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(
            ConfigurationError,
            match="unknown numeric backend 'fortran77'; available: dense-numpy, blocked-sparse",
        ):
            KernelCache(_random_links(4), backend="fortran77")


# ----------------------------------------------------------------------
# Every block is byte-identical to the slice of the full matrix
# ----------------------------------------------------------------------
class TestBlockIsSliceOfFull:
    @pytest.mark.parametrize("make_links", [_random_links, _line_links])
    def test_gap_block_matches_link_distances(self, make_links):
        links = make_links(23)
        rows, cols = np.arange(0, 23, 2), np.arange(23)
        full = links.link_distances()[np.ix_(rows, cols)]
        assert blocks.gap_block(links, rows, cols).tobytes() == full.tobytes()

    @pytest.mark.parametrize("make_links", [_random_links, _line_links])
    def test_link_distances_match_the_four_matrix_formula(self, make_links):
        links = make_links(23)
        assert links.link_distances().tobytes() == gap_matrix(links).tobytes()

    @pytest.mark.parametrize("make_links", [_random_links, _line_links])
    def test_gap_block_on_one_index_array_matches_link_distances(self, make_links):
        """``cols is rows`` reuses the transposed sender-receiver block."""
        links = make_links(23)
        idx = np.array([3, 0, 7, 22, 11, 5])
        full = links.link_distances()[np.ix_(idx, idx)]
        assert blocks.gap_block(links, idx, idx).tobytes() == full.tobytes()

    @given(
        seed=st.integers(0, 10_000),
        dim=st.sampled_from([1, 2, 3]),
        scale=st.sampled_from([1.0, 1e150, 1e154]),
        shared=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_gap_pairs_match_gap_block_bit_for_bit(self, seed, dim, scale, shared):
        """Aligned pairs equal the block's entries in 1-, 2- and 3-D,
        with overflowing squares at 1e154 and shared endpoints."""
        rng = np.random.default_rng(seed)
        n = 24
        senders = rng.uniform(-1.0, 1.0, size=(n, dim)) * scale
        # Short enough that no length overflows; gaps between far
        # senders still square past the float range at 1e154.
        offsets = rng.uniform(-1.0, 1.0, size=(n, dim)) * scale * 10.0 ** -rng.integers(1, 4, size=(n, 1))
        receivers = senders + offsets
        for k in range(1, n // 2 if shared else 1):
            # A chain: link k sends from link k - 1's receiver.
            senders[k] = receivers[k - 1]
            receivers[k] = senders[k] + offsets[k]
        links = LinkSet(senders, receivers)
        rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
        block = blocks.gap_block(links, np.arange(n), np.arange(n))
        pairs = blocks.gap_pairs(links, rows, cols)
        assert pairs.tobytes() == block.ravel().tobytes()
        if shared:
            assert np.any(pairs == 0.0) and np.any(block[~np.eye(n, dtype=bool)] == 0.0)
        if scale == 1e154 and dim > 1:
            assert np.isinf(pairs).any()

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_additive_block_matches_full(self, alpha):
        links = _random_links(19, rng=7)
        rows, cols = np.arange(5, 19), np.arange(19)
        full = additive_full(links, alpha)[np.ix_(rows, cols)]
        got = blocks.additive_block(links, alpha, rows, cols)
        assert got.tobytes() == full.tobytes()

    def test_affectance_block_matches_full(self):
        links = _random_links(17, rng=3)
        rows, cols = np.arange(17)[::-1], np.arange(3, 17)
        full = affectance_full(links, 3.0, 1.0)[np.ix_(rows, cols)]
        got = blocks.affectance_block(links, 3.0, 1.0, rows, cols)
        assert got.tobytes() == full.tobytes()

    def test_spectral_radius(self):
        gen = np.random.default_rng(0)
        a = np.abs(gen.normal(size=(8, 8))) * 0.1
        assert spectral_radius(a) == float(np.abs(np.linalg.eigvals(a)).max())
        assert spectral_radius(np.empty((0, 0))) == 0.0
        assert spectral_radius(np.array([[-2.5]])) == 2.5


# ----------------------------------------------------------------------
# The row-tiled relative block equals the one-shot expression
# ----------------------------------------------------------------------
def _chain_links(n: int, dim: int, scale: float, seed: int, shared: bool) -> LinkSet:
    """``n`` random links in ``dim`` dimensions at coordinate ``scale``;
    with ``shared``, each link of the first half sends from the
    previous link's receiver, so ``d(s_k, r_{k-1}) = 0`` and the kernel
    entry is infinite."""
    rng = np.random.default_rng(seed)
    senders = rng.uniform(-1.0, 1.0, size=(n, dim)) * scale
    offsets = rng.uniform(-1.0, 1.0, size=(n, dim)) * scale * 10.0 ** -rng.integers(1, 4, size=(n, 1))
    receivers = senders + offsets
    for k in range(1, n // 2 if shared else 1):
        senders[k] = receivers[k - 1]
        receivers[k] = senders[k] + offsets[k]
    return LinkSet(senders, receivers)


class TestTiledRelativeBlock:
    """``blocks.relative_block`` fills its output one row tile at a time;
    every entry equals the one-shot expression kept in
    ``tests/oracles/relative_oneshot.py`` bit for bit."""

    # 23 rows against 13 columns: every column link is also a row, at a
    # different position (3 is row 0 and col 2, 11 is row 3 and col 12).
    ROWS = np.array([3, 0, 7, 11, 14, 2, 19, 5, 8, 1, 22, 16, 9, 4, 18, 12, 6, 21, 10, 15, 13, 20, 17])
    COLS = np.array([1, 9, 3, 17, 4, 12, 0, 20, 6, 22, 8, 15, 11])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize(
        "tile", [1, 5 * 13, blocks.RELATIVE_TILE_ENTRIES],
        ids=["one-row-tiles", "uneven-tiles", "one-tile"],
    )
    def test_tiles_match_the_one_shot_block(self, dim, alpha, tile):
        """Tiles of one row, of five rows (23 is not a multiple of
        five) and one tile for the whole block."""
        links = _chain_links(23, dim, 1.0, seed=dim, shared=False)
        vec = np.random.default_rng(7).uniform(0.1, 10.0, size=23)
        want = oneshot_relative_block(links, vec, alpha, self.ROWS, self.COLS)
        with mock.patch.object(blocks, "RELATIVE_TILE_ENTRIES", tile):
            got = blocks.relative_block(links, vec, alpha, self.ROWS, self.COLS)
        assert got.tobytes() == want.tobytes()
        assert np.count_nonzero(got == 0.0) == self.COLS.size  # one per shared link

    @given(
        seed=st.integers(0, 10_000),
        dim=st.sampled_from([1, 2, 3]),
        scale=st.sampled_from([1.0, 1e150, 1e154]),
        shared=st.booleans(),
        tile=st.sampled_from([1, 40, 1 << 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_nodes_and_huge_coordinates(self, seed, dim, scale, shared, tile):
        """Infinite entries where links share a node and squares that
        overflow at 1e154 come out of every tile as out of the one-shot
        block."""
        n = 24
        links = _chain_links(n, dim, scale, seed, shared)
        gen = np.random.default_rng(seed)
        vec = gen.uniform(0.5, 2.0, size=n)
        rows, cols = gen.permutation(n)[:17], gen.permutation(n)[:11]
        want = oneshot_relative_block(links, vec, 3.0, rows, cols)
        with mock.patch.object(blocks, "RELATIVE_TILE_ENTRIES", tile):
            got = blocks.relative_block(links, vec, 3.0, rows, cols)
        assert got.tobytes() == want.tobytes()
        if shared:
            full = blocks.relative_block(links, vec, 3.0, np.arange(n), np.arange(n))
            assert np.isinf(full).any()

    def test_empty_sides(self):
        links = _random_links(9)
        none = np.arange(0)
        assert blocks.relative_block(links, np.ones(9), 3.0, none, np.arange(9)).shape == (0, 9)
        assert blocks.relative_block(links, np.ones(9), 3.0, np.arange(9), none).shape == (9, 0)


# ----------------------------------------------------------------------
# Conflict graphs: one CSR form under either backend
# ----------------------------------------------------------------------
def _graph_pair(n=40, rng=11, gamma=1.0):
    """The same geometry as dense-numpy and blocked-sparse conflict graphs."""
    dense_links = _random_links(n, rng=rng)
    sparse_links = LinkSet(dense_links.senders, dense_links.receivers)
    sparse_links.kernel(backend="blocked-sparse")
    dense = ConflictGraph(dense_links, ConstantThreshold(gamma))
    sparse = ConflictGraph(sparse_links, ConstantThreshold(gamma))
    return dense, sparse


class TestCrossBackendAdjacency:
    def test_both_backends_hold_the_same_csr_arrays(self):
        dense, sparse = _graph_pair()
        for graph in (dense, sparse):
            for array in (graph.indptr, graph.indices):
                assert array.dtype == np.int64 and not array.flags.writeable
        assert dense.indptr.tobytes() == sparse.indptr.tobytes()
        assert dense.indices.tobytes() == sparse.indices.tobytes()
        assert dense.edge_count == sparse.edge_count > 0

    def test_dense_views_match(self):
        dense, sparse = _graph_pair(n=30, rng=5)
        assert (sparse.adjacency == dense.adjacency).all()
        assert sparse.edge_count == dense.edge_count == int(dense.adjacency.sum()) // 2

    def test_neighbors_degrees_and_queries(self):
        dense, sparse = _graph_pair(n=25, rng=2)
        assert sparse.max_degree() == dense.max_degree()
        for i in range(25):
            assert (sparse.neighbors(i) == dense.neighbors(i)).all()
            assert (dense.neighbors(i) == np.flatnonzero(dense.adjacency[i])).all()
            assert sparse.degree(i) == dense.degree(i)
            for j in (0, 7, 24):
                assert sparse.are_adjacent(i, j) == dense.are_adjacent(i, j)
                assert dense.are_adjacent(i, j) == dense.adjacency[i, j]

    def test_is_independent_matches(self):
        dense, sparse = _graph_pair(n=25, rng=8)
        gen = np.random.default_rng(0)
        for _ in range(20):
            subset = gen.choice(25, size=gen.integers(1, 8), replace=False)
            assert sparse.is_independent(subset) == dense.is_independent(subset)

    def test_to_networkx_matches(self):
        dense, sparse = _graph_pair(n=20, rng=3)
        assert sorted(sparse.to_networkx().edges) == sorted(dense.to_networkx().edges)

    def test_dense_budget_guard(self, monkeypatch):
        """A default-kernel graph above 16,384 links refuses to build
        its dense view."""
        graph, _ = _graph_pair(n=10)
        # Fake an enormous n to trip the budget without allocating.
        monkeypatch.setattr(ConflictGraph, "n", property(lambda self: 16_385))
        with pytest.raises(ConfigurationError, match="dense adjacency for n=16385"):
            graph.adjacency

    def test_csr_arrays_load_into_scipy(self):
        pytest.importorskip("scipy")
        from scipy.sparse import csr_matrix

        dense, sparse = _graph_pair(n=15, rng=9)
        data = np.ones(sparse.indices.size, dtype=bool)
        matrix = csr_matrix((data, sparse.indices, sparse.indptr), shape=(15, 15))
        assert (matrix.toarray() == dense.adjacency).all()


class TestBlockedSparseNeverDense:
    def test_kernel_is_chunked_regardless_of_n(self):
        links = _random_links(10)
        kernel = KernelCache(links, backend="blocked-sparse")
        assert kernel.chunked and kernel.sparse

    def test_schedule_with_zero_dense_builds(self):
        links = _random_links(40, rng=4)
        links.kernel(backend="blocked-sparse")
        builder = ScheduleBuilder(SINRModel(alpha=3.0, beta=1.0), mode="uniform")
        schedule, report = builder.build_with_report(links)
        assert schedule.num_slots >= 1
        assert links.kernel().stats.dense_builds == 0
        assert links.kernel().sparse


# ----------------------------------------------------------------------
# KernelCache parameter validation
# ----------------------------------------------------------------------
#: Block sizes that are not integers >= 1: none may be coerced.
BAD_BLOCK_SIZES = [0, -8, 2.5, True, "8", "abc"]


class TestKernelValidation:
    @pytest.mark.parametrize("bad", BAD_BLOCK_SIZES)
    def test_block_size_must_be_positive(self, bad):
        links = _random_links(5)
        with pytest.raises(ConfigurationError, match="block_size"):
            KernelCache(links, block_size=bad)
        with pytest.raises(ConfigurationError, match="block_size"):
            links.kernel(block_size=bad)

    def test_minimum_values_accepted(self):
        links = _random_links(5)
        assert KernelCache(links, block_size=1).block_size == 1
        kernel = KernelCache(links, block_size=np.int64(4))
        assert kernel.block_size == 4 and type(kernel.block_size) is int
