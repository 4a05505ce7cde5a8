"""The array tree paths against the per-edge loops they replaced.

:func:`repro.spanning.mst.mst_edges`, :func:`mst_edges_kruskal` and
:func:`repro.scenarios.repair.complete_forest` run one Kruskal core over
``(pairs, weights)`` arrays; ``tests/oracles/tree_loops.py`` keeps the
loops over weighted triples.  Edge lists are compared element by
element: the disk tier persists tree edges in this order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.components import topologies
from repro.scenarios.repair import _candidate_edges, complete_forest
from repro.spanning.mst import _delaunay_candidate_edges, mst_edges, mst_edges_kruskal
from repro.util.unionfind import UnionFind
from oracles import tree_loops

PLANAR = ("square", "disk", "grid", "clusters")
#: Both sides of the dense-candidate limit (256) and of the Delaunay
#: MST threshold (512).
SIZES = (200, 300, 600)
REMOVED = (1, 3, 10, 100)


def deploy(topology: str, n: int, seed: int = 0):
    return topologies.get(topology).build(n, rng=seed)


def random_tree(n: int, rng: np.random.Generator):
    """A spanning tree with random weights: Kruskal over a random
    permutation of the all-pairs edges."""
    iu, iv = np.triu_indices(n, k=1)
    order = rng.permutation(len(iu))
    uf = UnionFind(n)
    edges = []
    for k in order.tolist():
        u, v = int(iu[k]), int(iv[k])
        if uf.union(u, v):
            edges.append((u, v))
            if len(edges) == n - 1:
                break
    return edges


def forced_forests(tree, rng: np.random.Generator):
    """``tree`` with 1, 3, 10 and 100 random edges removed, the rest
    shuffled."""
    for k in REMOVED:
        keep = rng.permutation(len(tree))[k:]
        yield [tree[i] for i in keep]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("topology", PLANAR)
class TestPlanar:
    def test_delaunay_candidates_match_the_loop(self, topology, n):
        pytest.importorskip("scipy")
        points = deploy(topology, n)
        pairs, weights = _delaunay_candidate_edges(points)
        old = tree_loops.delaunay_candidate_edges(points)
        assert pairs.dtype == np.int64 and weights.dtype == np.float64
        assert pairs.tolist() == [[u, v] for u, v, _w in old]
        # Weight pin: the batched product equals the per-edge norm on
        # every candidate; a one-ulp change can flip a Kruskal tie.
        assert weights.tolist() == [w for _u, _v, w in old]

    def test_mst_matches_the_loop(self, topology, n):
        points = deploy(topology, n)
        old = tree_loops.delaunay_candidate_edges(points)
        if old is None:
            pytest.skip("Delaunay path needs scipy")
        expected = tree_loops.mst_edges_kruskal(n, old)
        assert mst_edges(points, method="kruskal-delaunay") == expected
        assert mst_edges_kruskal(n, old) == expected
        if n >= 512:
            assert mst_edges(points) == expected

    def test_forest_completion_matches_the_loop(self, topology, n):
        points = deploy(topology, n)
        rng = np.random.default_rng(n)
        for tree in (mst_edges(points), random_tree(n, rng)):
            for forced in forced_forests(tree, rng):
                assert complete_forest(points, forced) == tree_loops.complete_forest(
                    points, forced
                )


@pytest.mark.parametrize("n", SIZES)
def test_line_forest_completion_matches_the_loop(n):
    points = deploy("exponential", n)
    assert points.is_line_instance
    rng = np.random.default_rng(n)
    tree = mst_edges(points)
    # Past n = 512 the longest gaps square to inf: ties broken by index.
    with np.errstate(over="ignore"):
        pairs, weights = _candidate_edges(points)
        old = tree_loops.candidate_edges(points)
        assert pairs.tolist() == [[u, v] for u, v, _w in old]
        assert weights.tolist() == [w for _u, _v, w in old]
        triples = [(u, v, points.distance(u, v)) for u, v in tree]
        assert mst_edges_kruskal(n, triples) == tree_loops.mst_edges_kruskal(n, triples)
        for forced in forced_forests(random_tree(n, rng), rng):
            assert complete_forest(points, forced) == tree_loops.complete_forest(
                points, forced
            )


def test_all_pairs_kruskal_matches_the_loop_on_ties():
    """Grid distances tie everywhere: order must fall back to index."""
    points = deploy("grid", 64)
    dm = points.distance_matrix()
    triples = [(i, j, float(dm[i, j])) for i in range(64) for j in range(i + 1, 64)]
    triples.reverse()
    assert mst_edges_kruskal(64, triples) == tree_loops.mst_edges_kruskal(64, triples)
