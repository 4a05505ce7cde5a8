"""Cross-validation against independent oracles (networkx, brute force)."""

import itertools

import networkx as nx
import numpy as np
import pytest

from oracles.dense_full import link_distances
from repro.geometry.generators import uniform_square
from repro.lowerbounds.verify import max_feasible_set_size
from repro.sinr.powercontrol import is_feasible_some_power
from repro.spanning.mst import mst_edges, total_weight
from repro.spanning.tree import AggregationTree


class TestMstAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_weight_as_networkx(self, seed):
        points = uniform_square(40, rng=seed)
        ours = mst_edges(points)
        g = nx.Graph()
        dm = points.distance_matrix()
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                g.add_edge(i, j, weight=float(dm[i, j]))
        theirs = nx.minimum_spanning_edges(g, data=False)
        their_weight = sum(dm[u, v] for u, v in theirs)
        assert total_weight(points, ours) == pytest.approx(their_weight)

    def test_line_instance_against_networkx(self):
        from repro.geometry.point import PointSet

        rng = np.random.default_rng(7)
        points = PointSet(np.sort(rng.uniform(0, 100, size=25)))
        ours = mst_edges(points)
        g = nx.Graph()
        dm = points.distance_matrix()
        for i in range(25):
            for j in range(i + 1, 25):
                g.add_edge(i, j, weight=float(dm[i, j]))
        their_weight = sum(
            dm[u, v] for u, v in nx.minimum_spanning_edges(g, data=False)
        )
        assert total_weight(points, ours) == pytest.approx(their_weight)


class TestMaxFeasibleSetAgainstBruteForce:
    def test_exact_matches_exhaustive(self, model):
        links = AggregationTree.mst(uniform_square(7, rng=11)).links()
        reported = max_feasible_set_size(links, model)
        # Exhaustive enumeration of all subsets.
        n = len(links)
        best = 0
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(n), r):
                if is_feasible_some_power(links, model, list(combo)):
                    best = max(best, r)
        assert reported == best

    def test_greedy_fallback_is_lower_bound(self, model):
        links = AggregationTree.mst(uniform_square(25, rng=13)).links()
        greedy = max_feasible_set_size(links, model, exact_limit=1)
        exactish = max_feasible_set_size(links, model, exact_limit=0)
        # exact_limit=0/1 both trigger the greedy path; sanity: a
        # feasible set of the reported size exists.
        assert 1 <= greedy == exactish <= len(links)


class TestConflictGraphAgainstDirectDefinition:
    def test_adjacency_matches_scalar_definition(self, model):
        """Vectorised construction vs the Appendix-A formula applied
        pairwise with scalar arithmetic."""
        from repro.conflict.graph import arbitrary_graph

        links = AggregationTree.mst(uniform_square(15, rng=17)).links()
        graph = arbitrary_graph(links, gamma=1.0, alpha=model.alpha)
        gap = link_distances(links)
        lengths = links.lengths
        f = graph.threshold
        for i in range(len(links)):
            for j in range(i + 1, len(links)):
                lmin = min(lengths[i], lengths[j])
                lmax = max(lengths[i], lengths[j])
                expected = gap[i, j] <= lmin * f.scalar(lmax / lmin)
                assert graph.are_adjacent(i, j) == expected
