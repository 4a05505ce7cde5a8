"""Tests for the reach-driven conflict candidates (repro.geometry.spatial).

The pair build is checked against the all-pairs builds it replaced,
kept in ``tests/oracles/conflict_allpairs.py``:

* **identical** — the CSR arrays are byte-equal to the every-tile
  oracle's and the dense view to the dense formula, on both backends,
  over all three threshold functions, uniform / clustered / 1-D
  placements and block sizes 1..64 (a hypothesis property);
* **sound reach** — every threshold's reach bounds the pair test of
  each link against every shorter one (a hypothesis property);
* **covering** — every oracle edge is a candidate pair, and no
  unordered pair is enumerated twice;
* **bounded** — no chunk holds more than its cap, and the kernel counts
  exactly the pairs evaluated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.conflict_allpairs import dense_adjacency, every_tile_adjacency, gap_matrix
from oracles.dense_full import adjacency
from repro.conflict.functions import (
    REACH_MARGIN,
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
    ThresholdFunction,
)
from repro.conflict.graph import ConflictGraph
from repro.geometry.spatial import MAX_MEAN_BOX_WIDTH, _cell_runs, candidate_pairs
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


def _diverse(lengths: np.ndarray, seed: int, dim: int, side: float = 1.0) -> LinkSet:
    """Links of the given lengths from uniform senders in ``[0, side]^dim``,
    pointing in uniform directions."""
    rng = np.random.default_rng(seed)
    senders = rng.uniform(0.0, side, size=(lengths.size, dim))
    dirs = rng.normal(size=(lengths.size, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return LinkSet(senders, senders + lengths[:, None] * dirs)


def _box_rows(links, threshold) -> int:
    """The row count of the enumeration's scanned boxes."""
    by_length = np.argsort(links.lengths, kind="stable")
    runs = _cell_runs(links, threshold.reach(links.lengths)[by_length], by_length)
    return runs[0].size


def _pair_list(links, threshold, max_pairs):
    return list(candidate_pairs(links, threshold.reach(links.lengths), max_pairs))


def _unordered(chunks) -> np.ndarray:
    """Every enumerated pair as a ``(k, 2)`` array, smaller index first."""
    longer = np.concatenate([np.empty(0, dtype=int)] + [a for a, _ in chunks])
    shorter = np.concatenate([np.empty(0, dtype=int)] + [b for _, b in chunks])
    return np.sort(np.stack([longer, shorter], axis=1), axis=1)


def _assert_equals_oracle(graph: ConflictGraph, links: LinkSet, threshold) -> None:
    """``graph`` is byte-equal to both all-pairs builds over a fresh copy
    of ``links`` with the same kernel configuration."""
    kernel = graph.links.kernel()
    plain = LinkSet(links.senders, links.receivers)
    plain.kernel(block_size=kernel.block_size, backend="blocked-sparse" if kernel.sparse else None)
    indptr, indices = every_tile_adjacency(plain, threshold)
    assert graph.indptr.tobytes() == indptr.tobytes()
    assert graph.indices.tobytes() == indices.tobytes()
    assert adjacency(graph).tobytes() == dense_adjacency(plain, threshold).tobytes()


class SquareRoot(ThresholdFunction):
    """A custom threshold on the generic reach bound."""

    name = "sqrt"

    def __call__(self, x):
        return 0.5 * np.sqrt(np.asarray(x, dtype=float))


REACH_THRESHOLDS = [
    ConstantThreshold(1.5),
    PowerLawThreshold(1.0, 0.3),
    *(LogThreshold(g, a) for g in (0.5, 1.0) for a in (2.5, 3.0, 4.0)),
    SquareRoot(),
]


class TestReach:
    @pytest.mark.parametrize("threshold", REACH_THRESHOLDS, ids=repr)
    @given(
        seed=st.integers(0, 10_000),
        spread=st.floats(0.0, 12.0),
        ties=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_every_pair_with_a_shorter_link(self, threshold, seed, spread, ties):
        """reach[i] dominates l_min * f(l_max/l_min), as the build
        computes it, for every pair in which i is the longer link in
        (length, index) order."""
        rng = np.random.default_rng(seed)
        lengths = 10.0 ** rng.uniform(-spread / 2, spread / 2, size=40)
        if ties:
            lengths = np.round(lengths, 1) + 0.1
        reach = threshold.reach(lengths)
        order = np.argsort(lengths, kind="stable")
        rank = np.empty(40, dtype=int)
        rank[order] = np.arange(40)
        longer, shorter = np.nonzero(rank[:, None] > rank[None, :])
        lmin = lengths[shorter]
        pair_bound = lmin * threshold(lengths[longer] / lmin)
        assert np.all(pair_bound <= reach[longer])

    def test_constant_and_power_law_are_gamma_l(self):
        lengths = np.array([1.0, 4.0, 2.0])
        for threshold in (ConstantThreshold(2.0), PowerLawThreshold(2.0, 0.5)):
            assert np.allclose(threshold.reach(lengths), 2.0 * lengths, rtol=1e-8)

    def test_log_constant(self):
        """At alpha = 3, f(x)/x peaks at x = e^2 with value 1.1267 gamma;
        low diversity keeps the tighter generic bound."""
        diverse = np.array([1e-6, 1.0, 10.0])
        assert LogThreshold(2.0, 3.0).reach(diverse)[2] == pytest.approx(2.0 * 1.12673 * 10.0, rel=1e-5)
        assert LogThreshold(1.0, 4.0).reach(diverse)[2] == pytest.approx(10.0, rel=1e-8)
        narrow = np.array([1.0, 1.5])
        assert LogThreshold(1.0, 3.0).reach(narrow) == pytest.approx(narrow, rel=1e-8)

    def test_log_reach_never_looser_than_generic(self):
        """Never above the generic l * f(l / L_min) with the same
        margin, and strictly below it on diverse lengths at alpha = 3."""
        lengths = 10.0 ** np.linspace(-3, 3, 50)
        for alpha in (2.1, 2.5, 3.0, 4.0, 6.0):
            f = LogThreshold(1.0, alpha)
            generic = ThresholdFunction._reach_bound(f, lengths) * (1.0 + REACH_MARGIN)
            assert np.all(f.reach(lengths) <= generic)
            if alpha == 3.0:
                assert f.reach(lengths)[-1] < generic[-1] / 300

    def test_custom_subclass_gets_the_generic_bound(self):
        lengths = np.array([1.0, 4.0, 16.0])
        assert np.allclose(SquareRoot().reach(lengths), lengths * 0.5 * np.sqrt(lengths), rtol=1e-8)


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
        max_pairs=st.integers(1, 400),
        threshold=st.sampled_from(THRESHOLDS),
        topology=st.sampled_from(["uniform", "clustered", "line"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_cover_every_oracle_edge_once(self, seed, n, max_pairs, threshold, topology):
        _assert_covers_every_edge_once(_deployment(n, seed, topology), threshold, max_pairs)


def _assert_covers_every_edge_once(links: LinkSet, threshold, max_pairs: int) -> None:
    """Every oracle edge is a candidate pair, no unordered pair is
    enumerated twice, the shorter link comes second and no chunk holds
    more than max_pairs pairs."""
    n = len(links)
    chunks = _pair_list(links, threshold, max_pairs)
    for longer, shorter in chunks:
        assert 0 < longer.size <= max_pairs and longer.size == shorter.size
        assert np.all(links.lengths[shorter] <= links.lengths[longer])
    pairs = _unordered(chunks)
    assert np.all(pairs[:, 0] < pairs[:, 1])
    covered = np.zeros((n, n), dtype=int)
    np.add.at(covered, (pairs[:, 0], pairs[:, 1]), 1)
    assert covered.max() <= 1, "a pair was enumerated twice"
    missed = np.triu(dense_adjacency(links, threshold)) & (covered == 0)
    assert not missed.any(), f"edges outside every chunk: {np.argwhere(missed)}"


class TestDiverseLengths:
    """Lengths spread over several decades: links far longer than the
    median coarsen the grid, and the build stays exact."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 60),
        decades=st.floats(2.0, 8.0),
        dim=st.sampled_from([2, 3]),
        max_pairs=st.integers(1, 400),
        threshold=st.sampled_from(THRESHOLDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_uniform_lengths_equal_oracle(self, seed, n, decades, dim, max_pairs, threshold):
        rng = np.random.default_rng(seed)
        links = _diverse(10.0 ** rng.uniform(-decades, 0.0, size=n), seed, dim)
        assert _box_rows(links, threshold) <= MAX_MEAN_BOX_WIDTH ** (dim - 1) * n
        _assert_covers_every_edge_once(links, threshold, max_pairs)
        _assert_equals_oracle(ConflictGraph(links, threshold), links, threshold)

    def test_one_long_link_in_3d(self):
        """100 links of length 1e-5 over the unit cube and one of length
        1: on the median cell the long link alone would scan every row
        of the grid, about (1 / 1.5e-5)^2 = 4.4e9."""
        lengths = np.r_[np.full(100, 1e-5), 1.0]
        links = _diverse(lengths, 5, 3)
        assert _box_rows(links, THRESHOLDS[0]) <= MAX_MEAN_BOX_WIDTH**2 * 101
        _assert_equals_oracle(ConflictGraph(links, THRESHOLDS[0]), links, THRESHOLDS[0])

    @pytest.mark.parametrize("n", [300, 2000])
    def test_two_length_classes_in_2d(self, n):
        """60% of the links of length 1e-5 and 40% of length 1 over
        [0, 100]^2: about 2.7e8 rows on the median cell at n = 2000."""
        rng = np.random.default_rng(n)
        links = _diverse(np.where(rng.random(n) < 0.6, 1e-5, 1.0), n, 2, side=100.0)
        assert _box_rows(links, THRESHOLDS[0]) <= MAX_MEAN_BOX_WIDTH * n
        if n <= 300:
            _assert_equals_oracle(ConflictGraph(links, THRESHOLDS[0]), links, THRESHOLDS[0])


def _compact(n: int = 30) -> LinkSet:
    """Links within a box narrower than one cell of their radius."""
    rng = np.random.default_rng(3)
    senders = rng.uniform(0.0, 3.0, size=(n, 2))
    return LinkSet(senders, senders + rng.uniform(0.5, 2.0, size=(n, 1)) * _unit_dirs(rng, n))


class TestFallbacks:
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    def test_compact_deployment_equals_oracle(self, threshold):
        """Links within one scan radius of each other: the grid has a
        handful of cells and every pair is a candidate."""
        links = _compact()
        assert len(_unordered(_pair_list(links, threshold, 10**6))) == 30 * 29 // 2
        _assert_equals_oracle(ConflictGraph(links, threshold), links, threshold)

    def test_chunks_are_capped(self):
        sizes = [a.size for a, _ in _pair_list(_compact(), ConstantThreshold(1.5), 100)]
        assert sum(sizes) == 435 and max(sizes) <= 100

    def test_unrepresentable_chain_falls_back(self):
        """1e154-scale chains exceed the grid's precision-safe range:
        every pair, each once with the shorter link second, and the
        oracle's edges."""
        coords = np.array([[0.0], [1e150], [1e154]])
        links = LinkSet(coords, coords + np.array([[1.0], [1e140], [1e144]]))
        chunks = _pair_list(links, ConstantThreshold(1.0), 2)
        assert [(a.tolist(), b.tolist()) for a, b in chunks] == [([1, 2], [0, 0]), ([2], [1])]
        _assert_equals_oracle(ConflictGraph(links, ConstantThreshold(1.0)), links, ConstantThreshold(1.0))

    @pytest.mark.parametrize("bound", [0.0, np.inf, np.nan])
    def test_unusable_reach_falls_back(self, bound):
        class Unbounded(ConstantThreshold):
            def _reach_bound(self, lengths):
                return np.full_like(lengths, bound)

        links = _deployment(40, 1, "uniform")
        assert len(_unordered(_pair_list(links, Unbounded(1.5), 64))) == 40 * 39 // 2
        _assert_equals_oracle(ConflictGraph(links, Unbounded(1.5)), links, Unbounded(1.5))


class TestEntries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_counts_the_pairs_evaluated(self, backend):
        """On a localised deployment the build evaluates each candidate
        pair once, one block per chunk, and nothing else: far fewer
        than n^2 / 2 entries."""
        n, block_size = 600, 64
        links = _deployment(n, 17, "clustered")
        links.kernel(backend=backend, block_size=block_size)
        graph = ConflictGraph(links, ConstantThreshold(1.5))
        chunks = _pair_list(links, ConstantThreshold(1.5), block_size**2)
        stats = links.kernel().stats
        assert stats.entries_served == sum(a.size for a, _ in chunks)
        assert stats.block_evals == len(chunks) > 1
        assert stats.entries_served < n * n // 8
        _assert_equals_oracle(graph, links, ConstantThreshold(1.5))
