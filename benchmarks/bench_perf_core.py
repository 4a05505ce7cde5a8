"""PERF — engineering throughput of the core primitives.

Times (with pytest-benchmark statistics) the MST, conflict-graph
construction, greedy coloring and the full certified pipeline at a
realistic size.  These are the knobs a downstream user actually feels.
"""

import pytest

from repro.conflict.graph import arbitrary_graph
from repro.coloring.greedy import greedy_coloring
from repro.geometry.generators import uniform_square
from repro.scheduling.builder import ScheduleBuilder
from repro.spanning.mst import mst_edges_prim
from repro.spanning.tree import AggregationTree

N = 400


@pytest.fixture(scope="module")
def points():
    return uniform_square(N, rng=53)


@pytest.fixture(scope="module")
def links(points):
    return AggregationTree.mst(points).links()


def test_perf_mst(benchmark, points):
    edges = benchmark(mst_edges_prim, points)
    assert len(edges) == N - 1


def test_perf_conflict_graph(benchmark, links, model):
    graph = benchmark(arbitrary_graph, links, 1.0, model.alpha)
    assert graph.n == N - 1


def test_perf_greedy_coloring(benchmark, links, model):
    graph = arbitrary_graph(links, 1.0, model.alpha)
    colors = benchmark(greedy_coloring, graph)
    assert colors.min() >= 0


def test_perf_full_pipeline(benchmark, links, model):
    builder = ScheduleBuilder(model, "global")
    schedule = benchmark(builder.build, links)
    assert schedule.num_slots >= 1


def test_perf_simulation(benchmark, points, model):
    from repro.aggregation.simulator import AggregationSimulator

    tree = AggregationTree.mst(points)
    schedule = ScheduleBuilder(model, "global").build_for_tree(tree)
    sim = AggregationSimulator(tree, schedule)
    result = benchmark.pedantic(sim.run, args=(200,), rounds=1, iterations=1)
    assert result.stable
