"""Tests for the pluggable numeric-backend layer (``repro.backend``)."""

import numpy as np
import pytest

from repro.backend import (
    DEFAULT_BACKEND,
    NumericBackend,
    numeric_backends,
    register_backend,
    resolve_backend,
)
from repro.backend.dense import DenseNumpyBackend
from repro.backend.sparse import BlockedSparseBackend, SparseAdjacency
from repro.conflict.graph import ConflictGraph
from repro.conflict.functions import ConstantThreshold
from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.sinr.kernels import KernelCache
from repro.sinr.powercontrol import spectral_radius

ALL_BACKENDS = ("dense-numpy", "blocked-sparse")


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
# Registry surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends(self):
        assert set(ALL_BACKENDS) <= set(numeric_backends.names())

    def test_resolve_default(self):
        backend = resolve_backend(None)
        assert backend.name == DEFAULT_BACKEND == "dense-numpy"

    def test_resolve_passes_instances_through(self):
        instance = DenseNumpyBackend()
        assert resolve_backend(instance) is instance

    def test_resolve_by_name(self):
        assert resolve_backend("blocked-sparse").name == "blocked-sparse"

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ConfigurationError, match="dense-numpy"):
            resolve_backend("fortran77")

    def test_register_backend_roundtrip(self):
        class Custom(DenseNumpyBackend):
            name = "custom-test-backend"

        register_backend("custom-test-backend", Custom())
        try:
            assert resolve_backend("custom-test-backend").name == "custom-test-backend"
        finally:
            numeric_backends.unregister("custom-test-backend")

    def test_abstract_backend_blocks_raise(self):
        links = _random_links(4)
        with pytest.raises(NotImplementedError):
            NumericBackend().gap_block(links, np.arange(4), np.arange(4))


# ----------------------------------------------------------------------
# Block-level bit-identity across backends
# ----------------------------------------------------------------------
class TestBlockIdentity:
    @pytest.mark.parametrize("name", ALL_BACKENDS[1:])
    @pytest.mark.parametrize("make_links", [_random_links, _line_links])
    def test_gap_blocks_byte_identical(self, name, make_links):
        links = make_links(23)
        rows, cols = np.arange(0, 23, 2), np.arange(23)
        ref = DenseNumpyBackend().gap_block(links, rows, cols)
        got = resolve_backend(name).gap_block(links, rows, cols)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ALL_BACKENDS[1:])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_additive_blocks_byte_identical(self, name, alpha):
        links = _random_links(19, rng=7)
        rows, cols = np.arange(5, 19), np.arange(19)
        ref = DenseNumpyBackend().additive_block(links, alpha, rows, cols)
        got = resolve_backend(name).additive_block(links, alpha, rows, cols)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ALL_BACKENDS[1:])
    def test_affectance_blocks_byte_identical(self, name):
        links = _random_links(17, rng=3)
        rows, cols = np.arange(17), np.arange(17)
        ref = DenseNumpyBackend().affectance_block(links, 3.0, 1.0, rows, cols)
        got = resolve_backend(name).affectance_block(links, 3.0, 1.0, rows, cols)
        assert got.tobytes() == ref.tobytes()

    def test_spectral_radius_matches_reference(self):
        backend = resolve_backend(None)
        gen = np.random.default_rng(0)
        a = np.abs(gen.normal(size=(8, 8))) * 0.1
        assert backend.spectral_radius(a) == spectral_radius(a)
        assert backend.spectral_radius(np.empty((0, 0))) == 0.0
        assert backend.spectral_radius(np.array([[-2.5]])) == 2.5
        assert backend.feasibility_margin(a) == 1.0 - backend.spectral_radius(a)


# ----------------------------------------------------------------------
# SparseAdjacency / blocked-sparse conflict graphs
# ----------------------------------------------------------------------
def _graph_pair(n=40, rng=11, gamma=1.0):
    """The same geometry as dense and blocked-sparse conflict graphs."""
    dense_links = _random_links(n, rng=rng)
    sparse_links = LinkSet(dense_links.senders, dense_links.receivers)
    sparse_links.kernel(backend="blocked-sparse")
    dense = ConflictGraph(dense_links, ConstantThreshold(gamma))
    sparse = ConflictGraph(sparse_links, ConstantThreshold(gamma))
    return dense, sparse


class TestSparseAdjacency:
    def test_sparse_graph_holds_csr_not_dense(self):
        _, sparse = _graph_pair()
        assert isinstance(sparse._sparse, SparseAdjacency)
        assert sparse._adjacency is None

    def test_csr_matches_dense_adjacency(self):
        dense, sparse = _graph_pair(n=30, rng=5)
        assert (sparse.adjacency == dense.adjacency).all()
        assert sparse.edge_count == dense.edge_count

    def test_neighbors_degrees_and_queries(self):
        dense, sparse = _graph_pair(n=25, rng=2)
        assert sparse.max_degree() == dense.max_degree()
        for i in range(25):
            assert (sparse.neighbors(i) == dense.neighbors(i)).all()
            assert sparse.degree(i) == dense.degree(i)
            for j in (0, 7, 24):
                assert sparse.are_adjacent(i, j) == dense.are_adjacent(i, j)

    def test_is_independent_matches_dense(self):
        dense, sparse = _graph_pair(n=25, rng=8)
        gen = np.random.default_rng(0)
        for _ in range(20):
            subset = gen.choice(25, size=gen.integers(1, 8), replace=False)
            assert sparse.is_independent(subset) == dense.is_independent(subset)

    def test_to_networkx_matches_dense(self):
        dense, sparse = _graph_pair(n=20, rng=3)
        assert sorted(sparse.to_networkx().edges) == sorted(dense.to_networkx().edges)

    def test_dense_budget_guard(self):
        sparse = SparseAdjacency(
            np.zeros(3, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        # Fake an enormous n to trip the budget without allocating.
        sparse.n = 10**9
        with pytest.raises(ConfigurationError, match="dense"):
            sparse.to_dense()

    def test_to_scipy_roundtrip(self):
        pytest.importorskip("scipy")
        dense, sparse = _graph_pair(n=15, rng=9)
        assert (sparse._sparse.to_scipy().toarray() == dense.adjacency).all()


class TestBlockedSparseNeverDense:
    def test_kernel_is_chunked_regardless_of_n(self):
        links = _random_links(10)
        kernel = KernelCache(links, backend="blocked-sparse")
        assert kernel.chunked and not kernel.backend.allows_dense

    def test_schedule_with_zero_dense_builds(self):
        from repro.scheduling.builder import ScheduleBuilder
        from repro.sinr.model import SINRModel

        links = _random_links(40, rng=4)
        builder = ScheduleBuilder(
            SINRModel(alpha=3.0, beta=1.0), mode="uniform", backend="blocked-sparse"
        )
        schedule, report = builder.build_with_report(links)
        assert schedule.num_slots >= 1
        assert links.kernel().stats.dense_builds == 0
        assert links.kernel().backend.name == "blocked-sparse"


# ----------------------------------------------------------------------
# KernelCache parameter validation (satellite fix)
# ----------------------------------------------------------------------
class TestKernelValidation:
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_max_dense_links_must_be_positive(self, bad):
        links = _random_links(5)
        with pytest.raises(ConfigurationError, match="max_dense_links"):
            KernelCache(links, max_dense_links=bad)

    @pytest.mark.parametrize("bad", [0, -8])
    def test_block_size_must_be_positive(self, bad):
        links = _random_links(5)
        with pytest.raises(ConfigurationError, match="block_size"):
            KernelCache(links, block_size=bad)

    def test_error_points_at_force_chunked(self):
        links = _random_links(5)
        with pytest.raises(ConfigurationError, match="force_chunked"):
            KernelCache(links, max_dense_links=0)

    def test_minimum_values_accepted(self):
        links = _random_links(5)
        kernel = KernelCache(links, block_size=1, max_dense_links=1)
        assert kernel.chunked  # 5 links > max_dense_links=1
