"""Differential suite: the library paths that once read whole ``n x n``
arrays against those dense paths, kept in ``tests/oracles/dense_full.py``.

* The protocol-model scheduler colors a CSR conflict graph under
  :class:`~repro.scheduling.baselines.ProtocolRule`: its edges equal the
  dense boolean conflict matrix byte for byte, and its slots and powers
  equal the first-fit loop over that matrix.
* :func:`~repro.coloring.refinement.refine_by_interference` and
  :func:`~repro.sinr.affectance.mst_sparsity_bound` read additive rows a
  tile at a time: every bucket and every bound (compared by
  ``float.hex``) equals the whole-matrix reading, with the tile patched
  small so that rows cross many tiles (``tests/test_sinr_kernels.py``
  checks the rows themselves at the default tile).
* :func:`~repro.conflict.independence.inductive_independence_number`
  reads neighbour sets: equal to the dense-adjacency measurement.

The instances are MSTs of every built-in topology at three sizes (two
seeds where the topology is random), a 40-link exponential chain (1-D,
coordinates far apart) and a 3-D point set.  A last test bounds the traced peak of the three
rewritten paths by one ``n x n`` float64 at n = 2,000.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from oracles.dense_full import (
    adjacency,
    inductive_independence_dense,
    mst_sparsity_bound_dense,
    protocol_colors,
    protocol_conflict_matrix,
    refine_dense,
)
from repro.api.measurements import MeasurementContext, measurements
from repro.backend import blocks
from repro.coloring.refinement import refine_by_interference
from repro.conflict.graph import arbitrary_graph, g1_graph, oblivious_graph
from repro.conflict.independence import inductive_independence_number
from repro.geometry.generators import exponential_line, make_deployment
from repro.geometry.point import PointSet
from repro.scheduling.baselines import protocol_graph, protocol_model_schedule
from repro.sinr.affectance import mst_sparsity_bound
from repro.sinr.model import SINRModel
from repro.spanning.tree import AggregationTree

MODEL = SINRModel(alpha=3.0, beta=1.0)
GUARDS = [0.0, 0.5, 1.0, 3.0]
ALPHAS = [2.5, 3.0, 4.0]
BUDGETS = [0.5, 1.0, 4.0]


def _mst(points: PointSet):
    return AggregationTree.mst(points).links()


#: Seeds 0 and 1 of the random topologies; grid and exponential
#: deployments ignore the seed, so they appear once per size.
INSTANCES = {
    f"{topology}-{n}-{seed}": (
        lambda topology=topology, n=n, seed=seed: _mst(make_deployment(topology, n, rng=seed))
    )
    for topology in ("square", "disk", "clusters", "grid", "exponential")
    for n in (30, 200, 700)
    for seed in ((0, 1) if topology in ("square", "disk", "clusters") else (0,))
}
INSTANCES["exponential-line-40"] = lambda: _mst(exponential_line(40))
INSTANCES["cube-3d-150"] = lambda: _mst(
    PointSet(np.random.default_rng(5).uniform(0.0, 1.0, size=(150, 3)))
)


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def links(request):
    return INSTANCES[request.param]()


@pytest.fixture
def small_tile(links):
    """Tiles of three rows (uneven against ``n``), so rows cross many
    tiles; the default tile is one block below 65,536 entries."""
    with mock.patch.object(blocks, "TILE_ENTRIES", 3 * len(links) + 1):
        yield


class TestProtocolModel:
    @pytest.mark.parametrize("guard", GUARDS)
    def test_graph_slots_and_powers_match_the_dense_loop(self, links, guard):
        dense = protocol_conflict_matrix(links, guard)
        assert adjacency(protocol_graph(links, guard)).tobytes() == dense.tobytes()
        colors = protocol_colors(links, guard)
        schedule = protocol_model_schedule(links, MODEL, guard=guard)
        want = [np.flatnonzero(colors == c) for c in range(int(colors.max()) + 1)]
        assert [list(slot.link_indices) for slot in schedule.slots] == [w.tolist() for w in want]
        for slot, idx in zip(schedule.slots, want):
            powers = np.maximum([MODEL.min_power(float(l)) for l in links.lengths[idx]], 1.0)
            assert slot.powers == tuple(float(p) for p in powers)


class TestAdditiveRows:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_refinement_buckets(self, links, small_tile, alpha):
        for budget in BUDGETS:
            got = refine_by_interference(links, alpha, budget=budget)
            assert got == refine_dense(links, alpha, budget)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_lemma1_bound_bit_for_bit(self, links, small_tile, alpha):
        assert mst_sparsity_bound(links, alpha).hex() == mst_sparsity_bound_dense(links, alpha).hex()


def test_inductive_independence(links):
    for graph in (
        g1_graph(links),
        oblivious_graph(links, delta=0.5),
        arbitrary_graph(links, alpha=3.0),
        protocol_graph(links),
    ):
        assert inductive_independence_number(graph) == inductive_independence_dense(graph)


def test_n2000_paths_peak_below_one_dense_matrix():
    """The protocol-model scheduler, the ``g1`` measurement and the
    Lemma-1 bound on the 1,999-link MST of a 2,000-point square each
    peak below one 1,999 x 1,999 float64 under tracemalloc (about 126,
    95 and 95 MiB when they built whole matrices)."""
    points = make_deployment("square", 2000, rng=0)
    tree = AggregationTree.mst(points)
    links = tree.links()
    ctx = MeasurementContext(SimpleNamespace(model=MODEL), points, tree)
    runs = {
        "protocol-model": lambda: protocol_model_schedule(links, MODEL),
        "g1": lambda: measurements.get("g1")(ctx, SimpleNamespace()),
        "mst_sparsity_bound": lambda: mst_sparsity_bound(links, MODEL.alpha),
    }
    small = _mst(make_deployment("square", 40, rng=0))
    protocol_model_schedule(small, MODEL)  # imports
    refine_by_interference(small, MODEL.alpha)
    limit = 8 * len(links) ** 2
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (name, peak)
