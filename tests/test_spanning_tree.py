"""Tests for AggregationTree."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.generators import grid_points, uniform_square
from repro.geometry.point import PointSet
from repro.spanning.tree import AggregationTree


class TestOrientation:
    def test_parent_of_sink_is_minus_one(self, square_tree):
        assert square_tree.parent[square_tree.sink] == -1

    def test_every_other_node_has_parent(self, square_tree):
        parents = square_tree.parent
        for v in range(len(square_tree.points)):
            if v != square_tree.sink:
                assert parents[v] >= 0

    def test_parents_walk_to_sink(self, square_tree):
        parents = square_tree.parent
        for v in range(len(square_tree.points)):
            node, hops = v, 0
            while node != square_tree.sink:
                node = int(parents[node])
                hops += 1
                assert hops <= len(square_tree.points)

    def test_depth_consistent_with_parent(self, square_tree):
        depth = square_tree.depth()
        for v, p in enumerate(square_tree.parent):
            if p >= 0:
                assert depth[v] == depth[p] + 1

    def test_children_inverse_of_parent(self, square_tree):
        kids = square_tree.children()
        for v, p in enumerate(square_tree.parent):
            if p >= 0:
                assert v in kids[int(p)]

    def test_bfs_order_starts_at_sink(self, square_tree):
        assert square_tree.bfs_order()[0] == square_tree.sink

    def test_different_sinks(self):
        ps = uniform_square(10, rng=0)
        t0 = AggregationTree.mst(ps, sink=0)
        t5 = AggregationTree.mst(ps, sink=5)
        assert sorted(map(tuple, map(sorted, t0.edges))) == sorted(
            map(tuple, map(sorted, t5.edges))
        )
        assert t5.parent[5] == -1


class TestValidation:
    def test_rejects_bad_sink(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(GeometryError):
            AggregationTree(ps, [(0, 1)], sink=5)

    def test_rejects_wrong_edge_count(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(GeometryError):
            AggregationTree(ps, [(0, 1)])

    def test_rejects_disconnected(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(GeometryError):
            AggregationTree(ps, [(0, 1), (0, 1), (2, 3)])

    @pytest.mark.parametrize("bad", [(0, 7), (0, -1)])
    def test_rejects_out_of_range_endpoints(self, bad):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(GeometryError, match=rf"edge \({bad[0]}, {bad[1]}\)"):
            AggregationTree(ps, [bad, (1, 2)])


class TestLinks:
    def test_link_count(self, square_tree):
        assert len(square_tree.links()) == len(square_tree.points) - 1

    def test_links_point_to_parents(self, square_tree):
        links = square_tree.links()
        for s, r in zip(links.sender_ids, links.receiver_ids):
            assert square_tree.parent[int(s)] == int(r)

    def test_links_cached(self, square_tree):
        assert square_tree.links() is square_tree.links()

    def test_link_of_node(self, square_tree):
        links = square_tree.links()
        v = square_tree.bfs_order()[3]
        idx = square_tree.link_of_node(v)
        assert int(links.sender_ids[idx]) == v

    def test_link_of_sink_rejected(self, square_tree):
        with pytest.raises(GeometryError):
            square_tree.link_of_node(square_tree.sink)


class TestHeight:
    def test_path_height(self):
        ps = PointSet([0.0, 1.0, 2.0, 3.0])
        tree = AggregationTree.mst(ps, sink=0)
        assert tree.height() == 3

    def test_grid_height_reasonable(self):
        ps = grid_points(4, 4)
        tree = AggregationTree.mst(ps, sink=0)
        assert 3 <= tree.height() <= 15

    def test_mst_classmethod_matches_manual(self, square_points):
        from repro.spanning.mst import mst_edges

        t = AggregationTree.mst(square_points)
        assert sorted(t.edges) == sorted(mst_edges(square_points))
