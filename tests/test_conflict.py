"""Tests for the conflict-graph family G_f."""

import numpy as np
import pytest

from oracles.dense_full import adjacency
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
)
from repro.conflict.graph import ConflictGraph, arbitrary_graph, g1_graph, oblivious_graph
from repro.conflict.independence import inductive_independence_number
from repro.errors import ConfigurationError, DegenerateLinkError, LinkError
from repro.links.link import Link
from repro.links.linkset import LinkSet

# Degenerate links used to surface as numpy divide RuntimeWarnings in
# the lmax/lmin threshold ratio; they must now be impossible by
# construction, so any RuntimeWarning in this module is a regression.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestThresholdFunctions:
    def test_constant(self):
        f = ConstantThreshold(2.0)
        assert f.scalar(1.0) == 2.0
        assert f.scalar(1e6) == 2.0

    def test_power_law(self):
        f = PowerLawThreshold(gamma=2.0, delta=0.5)
        assert f.scalar(4.0) == pytest.approx(4.0)

    def test_log_threshold_floor(self):
        f = LogThreshold(gamma=1.0, alpha=4.0)
        assert f.scalar(1.0) == 1.0  # max(1, log 1) = 1
        assert f.scalar(2.0) == pytest.approx(1.0)
        assert f.scalar(16.0) == pytest.approx(4.0 ** (2.0 / 2.0))

    def test_log_threshold_exponent(self):
        f = LogThreshold(gamma=1.0, alpha=3.0)
        # exponent 2/(3-2) = 2 -> f(4) = (log2 4)^2 = 4.
        assert f.scalar(4.0) == pytest.approx(4.0)

    def test_sublinearity_of_log_threshold(self):
        # log^2 is sub-linear asymptotically (it exceeds x briefly near
        # x ~ 10 for alpha = 3, so test the tail).
        f = LogThreshold(gamma=1.0, alpha=3.0)
        xs = np.array([1e3, 1e6, 1e12])
        assert np.all(f(xs) < xs)
        ratios = f(xs) / xs
        assert np.all(np.diff(ratios) < 0)  # ratio decreasing

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantThreshold(0.0)
        with pytest.raises(ConfigurationError):
            PowerLawThreshold(delta=1.0)
        with pytest.raises(ConfigurationError):
            LogThreshold(alpha=2.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("threshold", [ConstantThreshold, PowerLawThreshold, LogThreshold])
    def test_non_finite_gamma_rejected(self, threshold, value):
        """A NaN gamma makes every ``gap <= l_min * f`` test false."""
        with pytest.raises(ConfigurationError, match="gamma must be finite"):
            threshold(gamma=value)

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            LogThreshold(alpha=float("nan"))


def _two_links(gap: float, l0: float = 1.0, l1: float = 1.0) -> LinkSet:
    """Two horizontal links separated by `gap` between closest endpoints."""
    return LinkSet(
        senders=np.array([[0.0, 0.0], [l0 + gap + l1, 0.0]]),
        receivers=np.array([[l0, 0.0], [l0 + gap, 0.0]]),
    )


class TestConflictGraph:
    def test_adjacency_threshold_boundary(self):
        # G1 (gamma=1): conflict iff gap <= min(l0, l1).
        conflicting = g1_graph(_two_links(gap=0.9))
        independent = g1_graph(_two_links(gap=1.1))
        assert conflicting.are_adjacent(0, 1)
        assert not independent.are_adjacent(0, 1)

    def test_gamma_scales_reach(self):
        links = _two_links(gap=1.5)
        assert not g1_graph(links, gamma=1.0).are_adjacent(0, 1)
        assert g1_graph(links, gamma=2.0).are_adjacent(0, 1)

    def test_unequal_lengths_use_min_and_ratio(self):
        # l0=1, l1=8, gap=2: G1 independent (2 > 1*1);
        # G_obl with delta=0.5, gamma=1: f(8) = sqrt(8) ~ 2.83 -> conflict.
        links = _two_links(gap=2.0, l0=1.0, l1=8.0)
        assert not g1_graph(links).are_adjacent(0, 1)
        assert oblivious_graph(links, gamma=1.0, delta=0.5).are_adjacent(0, 1)

    def test_graph_nesting(self, square_links, model):
        """G1 ⊆ G_obl ⊆ G_arb edge-wise for gamma=1 (f grows)."""
        g1 = adjacency(g1_graph(square_links))
        gobl = adjacency(oblivious_graph(square_links, delta=0.5))
        garb = adjacency(arbitrary_graph(square_links, alpha=model.alpha))
        assert np.all(g1 <= gobl)
        # log^2 dominates sqrt only for large ratios; check edge counts
        # rather than strict nesting for the arbitrary graph.
        assert garb.sum() >= g1.sum()

    def test_symmetric(self, square_links):
        adj = adjacency(g1_graph(square_links))
        assert np.array_equal(adj, adj.T)

    def test_neighbors_and_degree(self, square_links):
        g = g1_graph(square_links)
        for v in (0, 3, 7):
            assert g.degree(v) == len(g.neighbors(v))
        assert g.max_degree() == max(g.degree(v) for v in range(g.n))

    def test_is_independent(self, square_links):
        g = g1_graph(square_links)
        assert g.is_independent([])
        assert g.is_independent([0])
        # A vertex and its neighbour are not independent.
        for v in range(g.n):
            nbrs = g.neighbors(v)
            if nbrs.size:
                assert not g.is_independent([v, int(nbrs[0])])
                break

    def test_to_networkx(self, square_links):
        g = g1_graph(square_links)
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == g.n
        assert nxg.number_of_edges() == g.edge_count

    def test_subgraph(self, square_links):
        g = oblivious_graph(square_links)
        sub = g.subgraph([0, 1, 2, 3])
        assert sub.n == 4
        sub_view, view = adjacency(sub), adjacency(g)
        for a in range(4):
            for b in range(4):
                assert sub_view[a, b] == view[a, b]


class TestDegenerateLinks:
    def test_linkset_rejects_zero_length(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateLinkError):
            LinkSet(coords, coords)

    def test_link_rejects_coincident_endpoints(self):
        with pytest.raises(DegenerateLinkError):
            Link((0.0, 0.0), (0.0, 0.0))

    def test_degenerate_is_a_link_error(self):
        # Callers catching the broader LinkError keep working.
        assert issubclass(DegenerateLinkError, LinkError)
        with pytest.raises(LinkError):
            LinkSet(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_graph_build_emits_no_runtime_warnings(self, square_links):
        # pytestmark escalates RuntimeWarning to an error, so a clean
        # build across all three thresholds proves the ratio is safe.
        g1_graph(square_links)
        oblivious_graph(square_links, delta=0.5)
        arbitrary_graph(square_links, alpha=3.0)


class TestDenseView:
    def _sparse_graph(self):
        rng = np.random.default_rng(5)
        senders = rng.uniform(0.0, 30.0, size=(40, 2))
        links = LinkSet(senders, senders + rng.uniform(0.3, 1.0, size=(40, 2)))
        links.kernel(backend="blocked-sparse", block_size=8)
        return g1_graph(links)

    def test_sparse_dense_views_agree(self):
        graph = self._sparse_graph()
        dense = adjacency(graph)
        for i in range(graph.n):
            assert np.array_equal(np.flatnonzero(dense[i]), graph.neighbors(i))


class TestInductiveIndependence:
    def test_constant_on_random_msts(self, model):
        """Appendix A: G_f has constant inductive independence."""
        from repro.geometry.generators import uniform_square
        from repro.spanning.tree import AggregationTree

        worst = 0
        for seed in range(3):
            links = AggregationTree.mst(uniform_square(50, rng=seed)).links()
            graph = arbitrary_graph(links, alpha=model.alpha)
            worst = max(worst, inductive_independence_number(graph))
        assert worst <= 12

    def test_small_example_exact(self):
        # Three mutually conflicting equal links: independence 1.
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0]]),
            receivers=np.array([[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]]),
        )
        g = g1_graph(links)
        assert inductive_independence_number(g) == 1


def _thirty_links(backend: str) -> LinkSet:
    rng = np.random.default_rng(0)
    senders = rng.uniform(0.0, 10.0, size=(30, 2))
    links = LinkSet(senders, senders + rng.uniform(0.3, 1.0, size=(30, 2)))
    links.kernel(backend=backend, block_size=8)
    return links


@pytest.mark.parametrize("backend", ["dense-numpy", "blocked-sparse"])
class TestVertexRange:
    """Every query names the first vertex outside [0, n) in a LinkError,
    on both adjacency forms."""

    @pytest.mark.parametrize("bad", [-1, 30, 31])
    def test_neighbors_and_degree(self, backend, bad):
        graph = ConflictGraph(_thirty_links(backend), ConstantThreshold(1.5))
        for query in (graph.neighbors, graph.degree):
            with pytest.raises(LinkError, match=f"link index {bad} is out of range for 30 links"):
                query(bad)

    @pytest.mark.parametrize("pair,bad", [((0, 30), 30), ((-1, 0), -1), ((30, -1), 30)])
    def test_are_adjacent(self, backend, pair, bad):
        graph = ConflictGraph(_thirty_links(backend), ConstantThreshold(1.5))
        with pytest.raises(LinkError, match=f"link index {bad} is out of range for 30 links"):
            graph.are_adjacent(*pair)

    @pytest.mark.parametrize("subset,bad", [([-1, 0], -1), ([0, 5, 30, -2], 30), ([31], 31)])
    def test_is_independent(self, backend, subset, bad):
        graph = ConflictGraph(_thirty_links(backend), ConstantThreshold(1.5))
        with pytest.raises(LinkError, match=f"link index {bad} is out of range for 30 links"):
            graph.is_independent(subset)


class TestSubgraphKernel:
    def test_subgraph_keeps_the_parents_kernel_configuration(self):
        links = _thirty_links("blocked-sparse")
        graph = ConflictGraph(links, ConstantThreshold(1.5))
        sub = graph.subgraph(range(20))
        assert sub.links.kernel().config() == links.kernel().config() == (8, True)
        expected = adjacency(graph)[:20, :20]
        assert sub.indptr.tolist() == [0] + np.cumsum(expected.sum(axis=1)).tolist()
        assert sub.indices.tolist() == np.nonzero(expected)[1].tolist()
