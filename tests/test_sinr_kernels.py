"""Tests for the interference kernel layer (``repro.sinr.kernels``)."""

import numpy as np
import pytest

from repro.conflict.graph import ConflictGraph
from repro.conflict.functions import ConstantThreshold
from repro.errors import LinkError
from repro.links.linkset import LinkSet
from repro.scheduling.repair import split_into_feasible_slots_fixed_power
from repro.sinr.affectance import (
    additive_interference,
    additive_interference_matrix,
    relative_interference_matrix,
)
from repro.sinr.feasibility import is_feasible_with_power, sinr_values
from repro.sinr.kernels import KernelCache
from repro.sinr.powercontrol import affectance_matrix, is_feasible_some_power

from oracles.repair_loops import split_with_predicate


def _random_links(n: int, rng: int, *, spacing: float = 2.0) -> LinkSet:
    """n random short links spread over a square (no shared nodes)."""
    gen = np.random.default_rng(rng)
    side = spacing * np.sqrt(n)
    senders = gen.uniform(0.0, side, size=(n, 2))
    angles = gen.uniform(0.0, 2 * np.pi, size=n)
    lengths = gen.uniform(0.5, 1.5, size=n)
    offsets = lengths[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return LinkSet(senders, senders + offsets)


def _dense_additive(links: LinkSet, alpha: float) -> np.ndarray:
    """The seed's dense formula, computed independently of the cache."""
    gap = links.link_distances()
    with np.errstate(divide="ignore"):
        ratio = (links.lengths[:, None] / gap) ** alpha
    m = np.minimum(1.0, ratio)
    np.fill_diagonal(m, 0.0)
    return m


class TestAttachment:
    def test_kernel_is_shared_per_linkset(self, square_links):
        assert square_links.kernel() is square_links.kernel()

    def test_new_linkset_gets_fresh_cache(self, square_links):
        other = square_links.subset(np.arange(len(square_links)))
        assert other.kernel() is not square_links.kernel()

    def test_reconfigure_replaces_cache(self, square_links):
        default = square_links.kernel()
        forced = square_links.kernel(backend="blocked-sparse", block_size=7)
        assert forced is not default
        assert forced.chunked and forced.block_size == 7
        # Same explicit config is idempotent; no-arg call keeps it.
        assert square_links.kernel(backend="blocked-sparse", block_size=7) is forced
        assert square_links.kernel() is forced

    def test_partial_reconfigure_preserves_other_options(self, square_links):
        square_links.kernel(backend="blocked-sparse")
        merged = square_links.kernel(block_size=64)
        # Unspecified options keep the attached cache's values: the
        # earlier memory constraint is not silently dropped.
        assert merged.sparse and merged.block_size == 64
        assert square_links.kernel(block_size=64) is merged


class TestCacheHitIdentity:
    def test_additive_matrix_memoized_and_matches_dense(self, square_links, model):
        m1 = additive_interference_matrix(square_links, model.alpha)
        m2 = additive_interference_matrix(square_links, model.alpha)
        assert m1 is m2  # served from the cache, not rebuilt
        assert np.array_equal(m1, _dense_additive(square_links, model.alpha))

    def test_single_query_does_not_build_dense(self, model):
        links = _random_links(60, rng=0)
        kernel = links.kernel()
        value = additive_interference(links, model.alpha, [1, 2, 3], 7)
        assert kernel.stats.dense_builds == 0
        dense = _dense_additive(links, model.alpha)
        assert value == pytest.approx(float(dense[[1, 2, 3], 7].sum()))

    def test_repeated_queries_never_build_dense(self, model):
        links = _random_links(60, rng=1)
        kernel = links.kernel()
        vec = np.random.default_rng(2).uniform(0.5, 2.0, size=60)
        idx = np.arange(0, 60, 3)
        for _ in range(3):
            additive_interference(links, model.alpha, [4, 5], 11)
            sinr_values(links, vec, model, idx)
            relative_interference_matrix(links, vec, model, idx)
            affectance_matrix(links, model, idx)
        # Every query is one block of exactly the entries it asked for.
        assert kernel.stats.dense_builds == kernel.stats.dense_hits == 0
        assert kernel.stats.block_evals == 3 * 4
        # The explicit full additive matrix is still memoized.
        m = additive_interference_matrix(links, model.alpha)
        assert additive_interference_matrix(links, model.alpha) is m
        assert kernel.stats.dense_builds == kernel.stats.dense_hits == 1

    def test_sinr_values_match_seed_formula(self, model):
        links = _random_links(50, rng=2)
        vec = np.random.default_rng(3).uniform(0.5, 2.0, size=50)
        idx = np.array([3, 8, 15, 22, 41])
        sub = links.subset(idx)
        p = vec[idx]
        dist = sub.sender_receiver_distances()
        with np.errstate(divide="ignore"):
            rel = (p[:, None] / p[None, :]) * (sub.lengths[None, :] / dist) ** model.alpha
        np.fill_diagonal(rel, 0.0)
        expected = 1.0 / rel.sum(axis=0)
        for _ in range(3):  # every call block-evaluates the same entries
            values = sinr_values(links, vec, model, idx)
            np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_affectance_subset_matches_seed_subset_build(self, model):
        links = _random_links(40, rng=4)
        idx = np.array([0, 5, 9, 30])
        sub = links.subset(idx)
        dist = sub.sender_receiver_distances()
        with np.errstate(divide="ignore"):
            expected = model.beta * ((sub.lengths[None, :] / dist) ** model.alpha).T
        np.fill_diagonal(expected, 0.0)
        for _ in range(3):
            a = affectance_matrix(links, model, idx)
            np.testing.assert_array_equal(a, expected)


class TestChunkedEquality:
    """Chunked block evaluation must agree with the dense paths."""

    @pytest.fixture
    def pair(self):
        coords = _random_links(90, rng=5)
        dense = coords
        chunked = LinkSet(coords.senders, coords.receivers)
        chunked.kernel(backend="blocked-sparse", block_size=13)
        return dense, chunked

    def test_additive(self, pair, model):
        dense, chunked = pair
        m = additive_interference_matrix(dense, model.alpha)
        rows = np.array([0, 17, 44, 89])
        cols = np.arange(90)
        block = chunked.kernel().additive_submatrix(model.alpha, rows, cols)
        np.testing.assert_allclose(block, m[np.ix_(rows, cols)], rtol=1e-12)
        assert chunked.kernel().stats.dense_builds == 0

    def test_additive_query(self, pair, model):
        dense, chunked = pair
        src = list(range(0, 90, 3))
        a = additive_interference(dense, model.alpha, src, 10)
        b = additive_interference(chunked, model.alpha, src, 10)
        assert b == pytest.approx(a, rel=1e-12)

    def test_sinr_values(self, pair, model, noisy_model):
        dense, chunked = pair
        vec = np.random.default_rng(6).uniform(0.5, 2.0, size=90)
        for m in (model, noisy_model):
            idx = np.arange(90)
            np.testing.assert_allclose(
                sinr_values(chunked, vec, m, idx),
                sinr_values(dense, vec, m, idx),
                rtol=1e-9,
            )

    def test_affectance(self, pair, model):
        dense, chunked = pair
        idx = np.arange(90)
        np.testing.assert_allclose(
            affectance_matrix(chunked, model, idx),
            affectance_matrix(dense, model, idx),
            rtol=1e-12,
        )
        assert chunked.kernel().stats.dense_builds == 0

    def test_conflict_graph(self, pair):
        dense, chunked = pair
        threshold = ConstantThreshold(1.0)
        g_dense = ConflictGraph(dense, threshold)
        g_chunked = ConflictGraph(chunked, threshold)
        np.testing.assert_array_equal(g_dense.adjacency, g_chunked.adjacency)

    def test_relative_matrix(self, pair, model):
        dense, chunked = pair
        vec = np.random.default_rng(7).uniform(0.5, 2.0, size=90)
        idx = np.array([2, 11, 29, 60, 88])
        np.testing.assert_allclose(
            relative_interference_matrix(chunked, vec, model, idx),
            relative_interference_matrix(dense, vec, model, idx),
            rtol=1e-12,
        )


class TestInvalidation:
    def test_power_change_misses_cache(self, model):
        links = _random_links(30, rng=8)
        vec1 = np.ones(30)
        vec2 = np.full(30, 5.0)
        for _ in range(3):
            sinr_values(links, vec1, model, np.arange(30))
        v_uniform = sinr_values(links, vec1, model, np.arange(30))
        v_scaled = sinr_values(links, vec2, model, np.arange(30))
        # Uniform power is scale-invariant: same SINR from a different
        # vector.
        np.testing.assert_allclose(v_scaled, v_uniform, rtol=1e-12)
        vec3 = np.linspace(1.0, 3.0, 30)
        v_ramp = sinr_values(links, vec3, model, np.arange(30))
        assert not np.allclose(v_ramp, v_uniform)

    def test_inplace_mutation_misses_cache(self, model):
        links = _random_links(30, rng=9)
        vec = np.ones(30)
        for _ in range(3):
            sinr_values(links, vec, model, np.arange(30))
        vec[0] = 10.0  # mutate the same array object
        fresh = sinr_values(links, vec.copy(), model, np.arange(30))
        np.testing.assert_allclose(
            sinr_values(links, vec, model, np.arange(30)), fresh, rtol=1e-12
        )

    def test_invalidate_clears_memo(self, model):
        links = _random_links(30, rng=10)
        kernel = links.kernel()
        m1 = additive_interference_matrix(links, model.alpha)
        kernel.invalidate()
        m2 = additive_interference_matrix(links, model.alpha)
        assert m1 is not m2
        assert np.array_equal(m1, m2)

    def test_geometry_is_per_linkset(self, model):
        a = _random_links(20, rng=11)
        b = _random_links(20, rng=12)
        additive_interference_matrix(a, model.alpha)
        mb = additive_interference_matrix(b, model.alpha)
        assert np.array_equal(mb, _dense_additive(b, model.alpha))


class TestIncrementalRepair:
    def _dense_split(self, links, class_indices, vec, model):
        def predicate(subset):
            return is_feasible_with_power(links, vec, model, subset)

        return split_with_predicate(links, class_indices, predicate)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_predicate_path(self, model, seed):
        links = _random_links(40, rng=seed, spacing=0.8)  # crowded: forces splits
        vec = np.ones(40)
        class_indices = list(range(0, 40, 2))
        fast = split_into_feasible_slots_fixed_power(links, class_indices, vec, model)
        slow = self._dense_split(links, class_indices, vec, model)
        assert fast == slow
        assert sum(len(s) for s in fast) == len(class_indices)
        for slot in fast:
            assert is_feasible_with_power(links, vec, model, slot)

    def test_matches_with_noise(self, noisy_model):
        links = _random_links(30, rng=20, spacing=0.8)
        vec = np.full(30, 10.0)
        class_indices = list(range(30))
        fast = split_into_feasible_slots_fixed_power(
            links, class_indices, vec, noisy_model
        )
        slow = self._dense_split(links, class_indices, vec, noisy_model)
        assert fast == slow

    def test_feasible_class_is_single_slot(self, model, two_parallel_links):
        result = split_into_feasible_slots_fixed_power(
            two_parallel_links, [0, 1], np.ones(2), model
        )
        assert result == [[0, 1]]

    def test_empty_class(self, model, two_parallel_links):
        assert (
            split_into_feasible_slots_fixed_power(
                two_parallel_links, [], np.ones(2), model
            )
            == []
        )

    def test_chunked_repair(self, model):
        coords = _random_links(40, rng=2, spacing=0.8)
        chunked = LinkSet(coords.senders, coords.receivers)
        chunked.kernel(backend="blocked-sparse", block_size=5)
        vec = np.ones(40)
        class_indices = list(range(0, 40, 2))
        fast = split_into_feasible_slots_fixed_power(chunked, class_indices, vec, model)
        slow = self._dense_split(coords, class_indices, vec, model)
        assert fast == slow
        assert chunked.kernel().stats.dense_builds == 0


class TestIndexValidation:
    """A link index outside ``[0, n)`` is a :class:`LinkError` naming it,
    at every oracle that reads the kernel — never a silent wrap-around
    (``-1`` answering for link ``n - 1``) or a bare numpy error."""

    N = 12
    QUERIES = {
        "sinr_values": lambda links, model, bad: sinr_values(
            links, np.ones(12), model, [bad]
        ),
        "is_feasible_with_power": lambda links, model, bad: is_feasible_with_power(
            links, np.ones(12), model, [0, bad]
        ),
        "is_feasible_some_power": lambda links, model, bad: is_feasible_some_power(
            links, model, [0, bad]
        ),
        "affectance_matrix": lambda links, model, bad: affectance_matrix(
            links, model, [bad, 1]
        ),
        "relative_interference_matrix": lambda links, model, bad: (
            relative_interference_matrix(links, np.ones(12), model, [bad])
        ),
        "additive_source": lambda links, model, bad: additive_interference(
            links, model.alpha, [1, bad], 0
        ),
        "additive_target": lambda links, model, bad: additive_interference(
            links, model.alpha, [1, 2], bad
        ),
    }

    @pytest.mark.parametrize("bad", [-1, 12], ids=["negative", "past-the-end"])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_out_of_range_index_is_a_link_error(self, model, query, bad):
        links = _random_links(self.N, rng=13)
        with pytest.raises(LinkError, match=rf"link index {bad} is out of range"):
            self.QUERIES[query](links, model, bad)

    def test_in_range_indices_are_unchanged(self, model):
        links = _random_links(self.N, rng=13)
        last = sinr_values(links, np.ones(12), model, [0, 11])
        assert np.all(np.isfinite(last)) and last.shape == (2,)


class TestConfigValidation:
    def test_bad_block_size(self, square_links):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            KernelCache(square_links, block_size=0)

    def test_stats_snapshot(self, square_links, model):
        additive_interference(square_links, model.alpha, [0, 1], 2)
        snap = square_links.kernel().stats.snapshot()
        assert snap["entries_served"] >= 2


class TestKernelStats:
    def test_chunked_colsums_count_blocks(self, model):
        links = _random_links(40, 4)
        cache = links.kernel(backend="blocked-sparse", block_size=5)
        cache.relative_colsums(np.ones(40), model.alpha, np.arange(40))
        assert cache.stats.block_evals == 8  # ceil(40 / 5) blocks

    def test_stats_pickle_roundtrip(self, square_links, model):
        import pickle

        # Pool jobs pickle RunArtifacts, kernel counters included.
        additive_interference(square_links, model.alpha, [0, 1], 2)
        stats = square_links.kernel().stats
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.snapshot() == stats.snapshot()
        clone.count_block(4)
        assert clone.block_evals == stats.block_evals + 1
