"""Tests for MST construction."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.generators import uniform_square
from repro.geometry.point import PointSet
from repro.spanning.mst import (
    line_mst_edges,
    mst_edges,
    mst_edges_kruskal,
    mst_edges_prim,
    total_weight,
)
from repro.util.unionfind import UnionFind


def _is_spanning_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    uf = UnionFind(n)
    for u, v in edges:
        if not uf.union(u, v):
            return False
    return uf.component_count == 1


class TestPrim:
    def test_single_point(self):
        assert mst_edges_prim(PointSet([[0.0, 0.0]])) == []

    def test_two_points(self):
        edges = mst_edges_prim(PointSet([[0.0, 0.0], [1.0, 0.0]]))
        assert len(edges) == 1

    def test_spanning(self):
        ps = uniform_square(30, rng=0)
        assert _is_spanning_tree(30, mst_edges_prim(ps))

    def test_known_optimum(self):
        # Square corners: MST weight is 3 (three unit sides).
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        edges = mst_edges_prim(ps)
        assert total_weight(ps, edges) == pytest.approx(3.0)

    def test_deterministic(self):
        ps = uniform_square(20, rng=1)
        assert mst_edges_prim(ps) == mst_edges_prim(ps)


class TestKruskal:
    def test_matches_prim_weight(self):
        ps = uniform_square(40, rng=2)
        dm = ps.distance_matrix()
        all_edges = [
            (i, j, float(dm[i, j])) for i in range(40) for j in range(i + 1, 40)
        ]
        kruskal = mst_edges_kruskal(40, all_edges)
        prim = mst_edges_prim(ps)
        assert total_weight(ps, kruskal) == pytest.approx(total_weight(ps, prim))
        assert _is_spanning_tree(40, kruskal)

    def test_disconnected_rejected(self):
        with pytest.raises(GeometryError):
            mst_edges_kruskal(3, [(0, 1, 1.0)])

    def test_single_node(self):
        assert mst_edges_kruskal(1, []) == []

    @pytest.mark.parametrize("bad", [(0, -1), (0, 7), (3, 1)])
    def test_out_of_range_endpoints_rejected(self, bad):
        # A negative index would wrap to the last node, a large one
        # would fail in the union-find with a bare IndexError.
        with pytest.raises(GeometryError, match=rf"edge \({bad[0]}, {bad[1]}\)"):
            mst_edges_kruskal(3, [(*bad, 1.0), (1, 2, 2.0)])


class TestLineMst:
    def test_adjacent_pairs(self):
        ps = PointSet([5.0, 1.0, 3.0])
        edges = line_mst_edges(ps)
        # Sorted order: indices 1 (=1.0), 2 (=3.0), 0 (=5.0).
        assert edges == [(1, 2), (2, 0)]

    def test_rejects_planar(self):
        ps = PointSet([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(GeometryError):
            line_mst_edges(ps)


class TestDispatch:
    def test_auto_line(self):
        ps = PointSet([0.0, 1.0, 10.0])
        assert mst_edges(ps) == line_mst_edges(ps)

    def test_auto_planar_small(self):
        ps = uniform_square(20, rng=3)
        assert mst_edges(ps) == mst_edges_prim(ps)

    def test_delaunay_matches_prim(self):
        pytest.importorskip("scipy")
        ps = uniform_square(600, rng=4)
        fast = mst_edges(ps, method="kruskal-delaunay")
        slow = mst_edges_prim(ps)
        assert total_weight(ps, fast) == pytest.approx(total_weight(ps, slow))

    def test_unknown_method(self):
        with pytest.raises(GeometryError):
            mst_edges(uniform_square(5, rng=0), method="magic")

    def test_line_method_on_planar_rejected(self):
        ps = PointSet([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(GeometryError):
            mst_edges(ps, method="line")


class TestMstProperties:
    def test_mst_uses_closest_pair(self):
        ps = uniform_square(25, rng=5)
        edges = mst_edges(ps)
        dm = ps.distance_matrix().copy()
        np.fill_diagonal(dm, np.inf)
        i, j = np.unravel_index(np.argmin(dm), dm.shape)
        assert (min(i, j), max(i, j)) in {(min(u, v), max(u, v)) for u, v in edges}

    def test_cycle_property(self):
        # Every non-tree edge is at least as long as the longest tree
        # edge on the path it closes (checked via the cut formulation:
        # removing the longest tree edge, the crossing non-tree edges
        # are all at least that long).
        ps = uniform_square(15, rng=6)
        edges = mst_edges(ps)
        dm = ps.distance_matrix()
        longest = max(edges, key=lambda e: dm[e[0], e[1]])
        weight = dm[longest[0], longest[1]]
        uf = UnionFind(15)
        for u, v in edges:
            if (u, v) != longest:
                uf.union(u, v)
        for a in range(15):
            for b in range(a + 1, 15):
                if not uf.connected(a, b):
                    assert dm[a, b] >= weight - 1e-12
