"""Tests for greedy coloring, the Theorem-2 refinement, multicoloring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.greedy import greedy_coloring, greedy_coloring_by_order
from repro.coloring.multicolor import cycle_multicoloring_demo
from repro.coloring.refinement import refine_by_interference
from repro.coloring.validation import color_classes, is_proper_coloring
from repro.conflict.graph import arbitrary_graph, g1_graph, oblivious_graph
from repro.errors import ConfigurationError, ScheduleError
from repro.geometry.generators import exponential_line, uniform_square
from repro.links.linkset import LinkSet
from repro.spanning.tree import AggregationTree


class TestGreedyColoring:
    def test_proper_on_all_graphs(self, square_links, model):
        for graph in (
            g1_graph(square_links),
            oblivious_graph(square_links),
            arbitrary_graph(square_links, alpha=model.alpha),
        ):
            colors = greedy_coloring(graph)
            assert is_proper_coloring(graph, colors)

    def test_colors_start_at_zero_and_contiguous(self, square_links):
        colors = greedy_coloring(g1_graph(square_links))
        used = sorted(set(colors.tolist()))
        assert used == list(range(len(used)))

    def test_at_most_degree_plus_one(self, square_links):
        g = oblivious_graph(square_links)
        colors = greedy_coloring(g)
        assert colors.max() <= g.max_degree()

    def test_explicit_order_validated(self, square_links):
        g = g1_graph(square_links)
        with pytest.raises(ScheduleError):
            greedy_coloring_by_order(g, [0, 0, 1])

    def test_deterministic(self, square_links):
        g = oblivious_graph(square_links)
        assert np.array_equal(greedy_coloring(g), greedy_coloring(g))

    def test_longest_first_order_used(self):
        # On an exponential chain, uniform-length-class structure means
        # the longest link must get color 0.
        links = AggregationTree.mst(exponential_line(8)).links()
        g = g1_graph(links)
        colors = greedy_coloring(g)
        longest = int(np.argmax(links.lengths))
        assert colors[longest] == 0


class TestRefinement:
    def test_buckets_partition(self, square_links, model):
        buckets = refine_by_interference(square_links, model.alpha)
        flat = sorted(i for b in buckets for i in b)
        assert flat == list(range(len(square_links)))

    def test_theorem2_buckets_independent_in_g1(self, model):
        """The heart of Theorem 2: each refinement bucket of an MST link
        set is an independent set of G1."""
        for seed in range(4):
            links = AggregationTree.mst(uniform_square(50, rng=seed)).links()
            g1 = g1_graph(links, gamma=1.0)
            for bucket in refine_by_interference(links, model.alpha):
                assert g1.is_independent(bucket)

    def test_constant_bucket_count_on_msts(self, model):
        """Theorem 2: the number of buckets is O(1) across sizes."""
        counts = []
        for n in (20, 80, 320):
            links = AggregationTree.mst(uniform_square(n, rng=7)).links()
            counts.append(len(refine_by_interference(links, model.alpha)))
        assert max(counts) <= 6
        assert counts[-1] <= counts[0] + 2  # no growth trend

    def test_budget_validation(self, square_links, model):
        with pytest.raises(ConfigurationError):
            refine_by_interference(square_links, model.alpha, budget=0.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_budget_must_be_finite_and_positive(self, square_links, model, budget):
        """Every ``I(i, S) < nan`` test fails, so a NaN budget used to
        open one bucket per link; an infinite one put every link in one."""
        with pytest.raises(ConfigurationError, match="budget"):
            refine_by_interference(square_links, model.alpha, budget=budget)

    def test_larger_budget_fewer_buckets(self, square_links, model):
        tight = refine_by_interference(square_links, model.alpha, budget=0.5)
        loose = refine_by_interference(square_links, model.alpha, budget=4.0)
        assert len(loose) <= len(tight)


class TestValidationHelpers:
    def test_color_classes_partition(self, square_links):
        colors = greedy_coloring(g1_graph(square_links))
        classes = color_classes(colors)
        flat = sorted(v for cls in classes.values() for v in cls)
        assert flat == list(range(len(square_links)))

    def test_improper_detected(self, square_links):
        g = g1_graph(square_links)
        colors = np.zeros(g.n, dtype=int)  # everything same color
        if g.edge_count > 0:
            assert not is_proper_coloring(g, colors)

    def test_uncolored_detected(self, square_links):
        g = g1_graph(square_links)
        colors = np.full(g.n, -1)
        assert not is_proper_coloring(g, colors)


def _dense_is_proper(adjacency: np.ndarray, colors: np.ndarray) -> bool:
    """The n x n formula the CSR check replaced."""
    if colors.shape != (adjacency.shape[0],) or np.any(colors < 0):
        return False
    same = colors[:, None] == colors[None, :]
    return not bool((same & adjacency).any())


class TestChecksMatchDenseFormulas:
    """``is_proper_coloring`` and ``is_independent`` read the CSR edges;
    they agree with the n x n formulas they replaced."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        palette=st.integers(1, 6),
        backend=st.sampled_from(["dense-numpy", "blocked-sparse"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_proper_and_improper_colorings(self, seed, n, palette, backend):
        rng = np.random.default_rng(seed)
        senders = rng.uniform(0.0, 2.0 * np.sqrt(n), size=(n, 2))
        links = LinkSet(senders, senders + rng.uniform(0.3, 1.5, size=(n, 2)))
        links.kernel(backend=backend, block_size=8)
        graph = g1_graph(links, gamma=1.5)
        adjacency = graph.adjacency
        proper = greedy_coloring(graph)
        clashing = proper.copy()
        v = int(rng.integers(n))
        if graph.degree(v):
            clashing[v] = proper[graph.neighbors(v)[0]]
        uncolored = proper.copy()
        uncolored[v] = -1
        colorings = [proper, clashing, uncolored, rng.integers(0, palette, size=n)]
        for colors in colorings:
            assert is_proper_coloring(graph, colors) == _dense_is_proper(adjacency, colors)
        assert is_proper_coloring(graph, proper)
        assert is_proper_coloring(graph, clashing) == (graph.degree(v) == 0)
        subsets = [np.flatnonzero(colorings[-1] == c) for c in range(palette)]
        subsets += [rng.choice(n, size=rng.integers(0, n + 1), replace=False) for _ in range(4)]
        for subset in subsets:
            expected = not bool(adjacency[np.ix_(subset, subset)].any())
            assert graph.is_independent(subset) == expected


class TestMulticoloring:
    def test_five_cycle_rates(self):
        result = cycle_multicoloring_demo(5)
        assert result.coloring_colors == 3
        assert result.coloring_rate == pytest.approx(1.0 / 3.0)
        assert result.multicolor_rate == pytest.approx(2.0 / 5.0)
        assert result.improvement == pytest.approx(1.2)

    def test_schedule_slots_are_nonadjacent(self):
        result = cycle_multicoloring_demo(5)
        for slot in result.schedule:
            if len(slot) == 2:
                a, b = slot
                assert abs(a - b) % 5 not in (0, 1, 4)

    def test_each_edge_twice_per_period(self):
        result = cycle_multicoloring_demo(5)
        for e in range(5):
            count = sum(1 for slot in result.schedule if e in slot)
            assert count == 2

    def test_larger_odd_cycles(self):
        result = cycle_multicoloring_demo(7)
        assert result.multicolor_rate == pytest.approx(2.0 / 7.0)

    def test_rejects_even_cycle(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            cycle_multicoloring_demo(4)
