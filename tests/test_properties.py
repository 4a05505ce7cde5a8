"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api.config import PipelineConfig
from repro.store.keys import deploy_key, links_key, schedule_key, stage_keys, tree_key

from repro.coloring.greedy import greedy_coloring
from repro.coloring.refinement import refine_by_interference
from repro.coloring.validation import is_proper_coloring
from repro.conflict.graph import arbitrary_graph, g1_graph, oblivious_graph
from repro.geometry.point import PointSet
from repro.links.linkset import LinkSet
from repro.sinr.feasibility import is_feasible_with_power, sinr_values
from repro.sinr.model import SINRModel
from repro.sinr.powercontrol import is_feasible_some_power
from repro.spanning.mst import mst_edges_prim, total_weight
from repro.spanning.tree import AggregationTree
from repro.util.mathx import log_star, loglog
from repro.util.unionfind import UnionFind

MODEL = SINRModel(alpha=3.0, beta=1.0)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
def point_sets(min_points=3, max_points=12):
    """Distinct planar pointsets with coordinates in a moderate range."""

    def build(raw):
        coords = np.round(np.asarray(raw, dtype=float), 3)
        unique = np.unique(coords, axis=0)
        if unique.shape[0] < min_points:
            return None
        return PointSet(unique)

    return (
        arrays(
            float,
            st.tuples(st.integers(min_points, max_points), st.just(2)),
            elements=st.floats(0.0, 100.0, allow_nan=False, width=32),
        )
        .map(build)
        .filter(lambda ps: ps is not None)
    )


def link_sets(min_links=2, max_links=8):
    """Random link sets with distinct endpoints and positive lengths."""

    def build(raw):
        coords = np.round(np.asarray(raw, dtype=float), 3)
        n = coords.shape[0] // 2
        senders, receivers = coords[:n], coords[n : 2 * n]
        lengths = np.linalg.norm(senders - receivers, axis=1)
        keep = lengths > 1e-6
        if keep.sum() < min_links:
            return None
        return LinkSet(senders[keep], receivers[keep])

    return (
        arrays(
            float,
            st.tuples(st.integers(2 * min_links, 2 * max_links), st.just(2)),
            elements=st.floats(0.0, 50.0, allow_nan=False, width=32),
        )
        .map(build)
        .filter(lambda ls: ls is not None)
    )


# ---------------------------------------------------------------------------
# Slow-growing functions
# ---------------------------------------------------------------------------
class TestMathProperties:
    @given(st.floats(1.0, 1e300))
    def test_log_star_fixpoint(self, x):
        """log*(x) = 1 + log*(log2 x) for x > 1."""
        if x > 1.0:
            assert log_star(x) == 1 + log_star(math.log2(x))

    @given(st.floats(2.0, 1e300), st.floats(1.0, 100.0))
    def test_log_star_monotone(self, x, bump):
        assert log_star(x + bump) >= log_star(x)

    @given(st.floats(4.0, 1e300))
    def test_loglog_below_log_star_times_log(self, x):
        # Sanity relation: log* grows far slower than loglog.
        assert log_star(x) <= loglog(x) + 3


# ---------------------------------------------------------------------------
# Geometry / MST
# ---------------------------------------------------------------------------
class TestMstProperties:
    @settings(max_examples=30, deadline=None)
    @given(point_sets())
    def test_mst_is_spanning_tree(self, points):
        edges = mst_edges_prim(points)
        assert len(edges) == len(points) - 1
        uf = UnionFind(len(points))
        for u, v in edges:
            assert uf.union(u, v)
        assert uf.component_count == 1

    @settings(max_examples=20, deadline=None)
    @given(point_sets(min_points=3, max_points=8))
    def test_mst_minimality_vs_random_trees(self, points):
        """No single-edge swap improves the MST (cut optimality spot
        check via total weight against star trees)."""
        edges = mst_edges_prim(points)
        mst_weight = total_weight(points, edges)
        for hub in range(len(points)):
            star = [(hub, v) for v in range(len(points)) if v != hub]
            assert mst_weight <= total_weight(points, star) + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(point_sets(), st.floats(0.5, 20.0))
    def test_mst_scale_invariant(self, points, factor):
        base = {tuple(sorted(e)) for e in mst_edges_prim(points)}
        scaled = {tuple(sorted(e)) for e in mst_edges_prim(points.scaled(factor))}
        assert base == scaled


# ---------------------------------------------------------------------------
# SINR feasibility
# ---------------------------------------------------------------------------
class TestFeasibilityProperties:
    @settings(max_examples=30, deadline=None)
    @given(link_sets(), st.floats(0.1, 10.0))
    def test_power_scaling_invariance(self, links, factor):
        """Scaling all powers uniformly never changes noiseless
        feasibility."""
        p = np.ones(len(links))
        assert is_feasible_with_power(links, p, MODEL) == is_feasible_with_power(
            links, factor * p, MODEL
        )

    @settings(max_examples=30, deadline=None)
    @given(link_sets(min_links=3))
    def test_subset_monotonicity(self, links):
        """A subset of a feasible set is feasible (fixed power)."""
        p = np.ones(len(links))
        full = is_feasible_with_power(links, p, MODEL)
        if full:
            for drop in range(len(links)):
                subset = [i for i in range(len(links)) if i != drop]
                assert is_feasible_with_power(links, p, MODEL, subset)

    @settings(max_examples=30, deadline=None)
    @given(link_sets(min_links=2, max_links=6))
    def test_fixed_power_feasible_implies_some_power(self, links):
        """Fixed-power feasibility (with a hair of slack, since the
        power-control oracle is strict at the spectral boundary)
        implies power-control feasibility."""
        p = np.ones(len(links))
        if is_feasible_with_power(links, p, MODEL, slack=1e-6):
            assert is_feasible_some_power(links, MODEL)

    @settings(max_examples=30, deadline=None)
    @given(link_sets(min_links=2, max_links=6), st.floats(1.0, 8.0))
    def test_beta_monotonicity(self, links, beta_factor):
        """Raising beta can only shrink the feasible family."""
        strict = MODEL.with_beta(MODEL.beta * beta_factor)
        p = np.ones(len(links))
        if is_feasible_with_power(links, p, strict):
            assert is_feasible_with_power(links, p, MODEL)

    @settings(max_examples=30, deadline=None)
    @given(link_sets(min_links=2, max_links=6), st.floats(0.5, 30.0))
    def test_geometry_scale_invariance(self, links, factor):
        """Noiseless SINR feasibility is scale invariant (with uniform
        power)."""
        scaled = LinkSet(links.senders * factor, links.receivers * factor)
        p = np.ones(len(links))
        assert is_feasible_with_power(links, p, MODEL) == is_feasible_with_power(
            scaled, p, MODEL
        )


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------
class TestColoringProperties:
    @settings(max_examples=25, deadline=None)
    @given(link_sets(min_links=3, max_links=10))
    def test_greedy_always_proper(self, links):
        for graph in (g1_graph(links), oblivious_graph(links), arbitrary_graph(links)):
            assert is_proper_coloring(graph, greedy_coloring(graph))

    @settings(max_examples=25, deadline=None)
    @given(link_sets(min_links=3, max_links=10))
    def test_refinement_partitions(self, links):
        buckets = refine_by_interference(links, MODEL.alpha)
        flat = sorted(i for b in buckets for i in b)
        assert flat == list(range(len(links)))

    @settings(max_examples=25, deadline=None)
    @given(point_sets(min_points=4, max_points=10))
    def test_refinement_buckets_independent_in_g1_for_msts(self, points):
        """Theorem 2's invariant on arbitrary (not just random) MSTs."""
        links = AggregationTree.mst(points).links()
        g1 = g1_graph(links, gamma=1.0)
        for bucket in refine_by_interference(links, MODEL.alpha):
            assert g1.is_independent(bucket)


# ---------------------------------------------------------------------------
# Stage-store cache keys
# ---------------------------------------------------------------------------
#: One keyword parameter of each built-in topology builder.
TOPOLOGY_PARAM = {
    "square": "side",
    "disk": "radius",
    "grid": "spacing",
    "clusters": "cluster_std",
    "exponential": "base",
}


def pipeline_configs():
    """Valid PipelineConfigs across every registry axis and the numeric
    model/instance parameters the stage keys read."""
    return st.builds(
        PipelineConfig,
        topology=st.sampled_from(("square", "disk", "grid", "clusters", "exponential")),
        n=st.integers(2, 256),
        seed=st.integers(0, 9),
        sink=st.just(0),
        tree=st.sampled_from(("mst", "matching", "knn-mst")),
        power=st.sampled_from(("global", "oblivious", "uniform", "linear", "mean")),
        scheduler=st.sampled_from(
            ("certified", "greedy-sinr", "protocol-model", "tdma")
        ),
        alpha=st.floats(2.1, 6.0, allow_nan=False),
        beta=st.floats(0.1, 4.0, allow_nan=False),
        num_frames=st.integers(0, 3),
    )


class TestStoreKeyProperties:
    """The cache-collision guards on :mod:`repro.store.keys`.

    Keys are pure functions of the config: equal configs must agree on
    every stage key (or the store would rebuild needlessly), and any
    change to a field a stage reads must change that stage's key (or
    the store would silently alias two different artifacts).
    """

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs())
    def test_equal_configs_equal_keys(self, config):
        twin = PipelineConfig.from_dict(config.to_dict())
        assert twin == config
        assert stage_keys(twin) == stage_keys(config)

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs())
    def test_dict_round_trip_is_key_stable(self, config):
        """to_dict/from_dict twice (the provenance path) never drifts."""
        once = PipelineConfig.from_dict(config.to_dict())
        twice = PipelineConfig.from_dict(once.to_dict())
        assert stage_keys(twice) == stage_keys(config)

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs())
    def test_n_change_splits_every_stage(self, config):
        other = config.replace(n=config.n + 1)
        mine, theirs = stage_keys(config), stage_keys(other)
        assert all(mine[stage] != theirs[stage] for stage in mine)

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs())
    def test_alpha_splits_only_the_schedule(self, config):
        other = config.replace(alpha=config.alpha + 0.25)
        assert deploy_key(other) == deploy_key(config)
        assert tree_key(other) == tree_key(config)
        assert links_key(other) == links_key(config)
        assert schedule_key(other) != schedule_key(config)

    @settings(max_examples=50, deadline=None)
    @given(
        pipeline_configs(),
        st.sampled_from(("dense-numpy", "blocked-sparse")),
    )
    def test_backend_never_splits_any_stage_key(self, config, backend):
        """Backends are bit-identical by contract, so the backend choice
        must never fragment the content-addressed cache."""
        other = config.replace(backend=backend)
        assert stage_keys(other) == stage_keys(config)

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs(), st.sampled_from(("mst", "matching", "knn-mst")))
    def test_tree_splits_tree_and_schedule_not_deploy(self, config, tree):
        other = config.replace(tree=tree)
        assert deploy_key(other) == deploy_key(config)
        if tree == config.tree:
            assert stage_keys(other) == stage_keys(config)
        else:
            assert tree_key(other) != tree_key(config)
            assert schedule_key(other) != schedule_key(config)

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs())
    def test_seed_splits_deploy_iff_topology_uses_it(self, config):
        from repro.api.components import topologies

        other = config.replace(seed=config.seed + 1)
        uses_seed = topologies.get(config.topology).uses_seed
        assert (deploy_key(other) != deploy_key(config)) == uses_seed
        assert (schedule_key(other) != schedule_key(config)) == uses_seed

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs(), st.floats(0.5, 3.0, allow_nan=False))
    def test_declared_constants_split_the_schedule_key(self, config, gamma):
        """gamma splits schedulers that declare it and is inert on the
        rest (a gamma override on tdma must not fragment its cache)."""
        from repro.api.components import schedulers

        other = config.replace(gamma=gamma)
        declared = "gamma" in schedulers.get(config.scheduler).constants
        assert (schedule_key(other) != schedule_key(config)) == declared
        assert deploy_key(other) == deploy_key(config)

    @settings(max_examples=50, deadline=None)
    @given(pipeline_configs())
    def test_topology_params_split_the_deploy_key(self, config):
        param = TOPOLOGY_PARAM[config.topology]
        other = config.replace(topology_params={**config.topology_params, param: 2.0})
        assert deploy_key(other) != deploy_key(config)

    @settings(max_examples=25, deadline=None)
    @given(pipeline_configs(), st.integers(1, 5))
    def test_scenario_signature_splits_all_stages_per_epoch(self, config, epoch):
        """Epoch-aware keys: a scenario signature forks every stage key
        away from the static pipeline's, and distinct epochs never
        share entries."""
        sig = {"scenario": "churn", "scenario_seed": 0, "params": {}, "epoch": epoch}
        static, scoped = stage_keys(config), stage_keys(config, scenario=sig)
        assert all(static[stage] != scoped[stage] for stage in static)
        later = stage_keys(
            config, scenario={**sig, "epoch": epoch + 1}
        )
        assert all(later[stage] != scoped[stage] for stage in scoped)
        assert stage_keys(config, scenario=None) == static

    @settings(max_examples=50, deadline=None)
    @given(
        pipeline_configs(),
        st.text("0123456789abcdef", min_size=6, max_size=40),
        st.text("0123456789abcdef", min_size=6, max_size=40),
    )
    def test_carried_state_splits_only_the_schedule_key(
        self, config, sig_a, sig_b
    ):
        """Incremental-vs-scratch store keys split: a carried-state
        digest forks the schedule key away from the from-scratch build
        (and distinct carried histories fork from each other) while the
        upstream stages keep sharing their entries."""
        scratch, carried = stage_keys(config), stage_keys(config, carried=sig_a)
        assert carried["schedule"] != scratch["schedule"]
        for stage in ("deploy", "tree", "links"):
            assert carried[stage] == scratch[stage]
        assert (
            schedule_key(config, carried=sig_a)
            == schedule_key(config, carried=sig_b)
        ) == (sig_a == sig_b)
        assert schedule_key(config, carried=None) == scratch["schedule"]


# ---------------------------------------------------------------------------
# End-to-end
# ---------------------------------------------------------------------------
class TestPipelineProperties:
    @settings(max_examples=10, deadline=None)
    @given(point_sets(min_points=4, max_points=10))
    def test_builder_schedules_always_valid(self, points):
        from repro.scheduling.builder import ScheduleBuilder

        links = AggregationTree.mst(points).links()
        for mode in ("global", "oblivious"):
            schedule = ScheduleBuilder(MODEL, mode).build(links)
            schedule.validate()
            assert schedule.num_slots <= len(links)

    @settings(max_examples=10, deadline=None)
    @given(point_sets(min_points=4, max_points=9))
    def test_simulation_always_correct(self, points):
        from repro.aggregation.simulator import AggregationSimulator
        from repro.scheduling.builder import ScheduleBuilder

        tree = AggregationTree.mst(points)
        schedule = ScheduleBuilder(MODEL, "global").build_for_tree(tree)
        result = AggregationSimulator(tree, schedule).run(3, rng=0)
        assert result.stable
        assert result.values_correct


# ---------------------------------------------------------------------------
# Incremental delta scheduling
# ---------------------------------------------------------------------------
def _epoch_delta(links, data):
    """Draw a small epoch delta over ``links``: drop up to 2 links,
    nudge up to one surviving receiver, add up to 2 fresh far-away
    links.  Returns ``(base_ids, new_links, new_ids)`` under synthetic
    persistent ids."""
    from repro.errors import LinkError

    n = len(links)
    base_ids = [(i, 10_000 + i) for i in range(n)]
    drop = data.draw(
        st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)), label="drop"
    )
    keep = [i for i in range(n) if i not in drop]
    senders = np.array(links.senders[keep])
    receivers = np.array(links.receivers[keep])
    moved = data.draw(
        st.one_of(st.none(), st.integers(0, len(keep) - 1)), label="moved"
    )
    if moved is not None:
        receivers[moved] = receivers[moved] + np.array([0.013, 0.017])
    new_ids = [base_ids[i] for i in keep]
    for j in range(data.draw(st.integers(0, 2), label="arrivals")):
        senders = np.vstack([senders, [500.0 + 3.0 * j, 500.0]])
        receivers = np.vstack([receivers, [500.0 + 3.0 * j, 500.4]])
        new_ids.append((50_000 + j, 60_000 + j))
    try:
        new_links = LinkSet(senders, receivers)
    except LinkError:
        assume(False)
    return base_ids, new_links, new_ids


def _slots_by_id(state):
    """Each carried link's slot, read by id from the state's arrays."""
    return {(a, b): slot for (a, b), slot in zip(state.ids.tolist(), state.slot.tolist())}


class TestIncrementalProperties:
    """Certification of the delta scheduler's carried-state contract
    (:mod:`repro.scheduling.incremental`)."""

    def _warm(self, links, data):
        from repro.scheduling.incremental import (
            IncrementalScheduler,
            ScheduleState,
        )

        inc = IncrementalScheduler(MODEL, "oblivious")
        cold_sched, _cold_report = inc.schedule(links)
        base_ids, new_links, new_ids = _epoch_delta(links, data)
        state = ScheduleState.from_schedule(cold_sched, base_ids, MODEL)
        _sched, report = inc.schedule(
            new_links, link_ids=new_ids, prev_state=state
        )
        new_state = ScheduleState.from_schedule(_sched, new_ids, MODEL)
        return inc, state, new_state, new_links, new_ids, report

    @settings(max_examples=25, deadline=None)
    @given(link_sets(min_links=4, max_links=9), st.data())
    def test_untouched_feasible_links_keep_their_slot(self, links, data):
        inc, state, new_state, _links, new_ids, _report = self._warm(
            links, data
        )
        delta = inc.last_delta
        touched = set(delta.moved) | set(delta.evicted) | set(delta.arrived)
        old_slots, new_slots = _slots_by_id(state), _slots_by_id(new_state)
        for lid in new_ids:
            if lid in touched or lid not in old_slots:
                continue
            old_slot = old_slots[lid]
            assert old_slot in delta.slot_map
            assert new_slots[lid] == delta.slot_map[old_slot]

    @settings(max_examples=25, deadline=None)
    @given(link_sets(min_links=4, max_links=9), st.data())
    def test_evicted_set_covers_every_broken_link(self, links, data):
        inc, state, _new_state, new_links, new_ids, _report = self._warm(
            links, data
        )
        delta = inc.last_delta
        evicted = set(delta.evicted)
        # Recompute, independently of the scheduler, which carried
        # links' row-sum feasibility actually broke inside their old
        # slot under the new geometry: every one of those must have
        # been evicted (the oracle may evict more, never less).
        index_of = {lid: i for i, lid in enumerate(new_ids)}
        vec = inc._builder._power_scheme(new_links).powers(new_links)
        kernel = new_links.kernel()
        groups = {}
        for lid, slot in _slots_by_id(state).items():
            if lid in index_of:
                groups.setdefault(slot, []).append(index_of[lid])
        for members in groups.values():
            sub = kernel.relative_submatrix(vec, MODEL.alpha, members, members)
            denoms = sub.sum(axis=0)  # noiseless model: no noise term
            for m, d in zip(members, denoms):
                if d > 0 and 1.0 / d < MODEL.beta:
                    assert new_ids[m] in evicted

    @settings(max_examples=25, deadline=None)
    @given(link_sets(min_links=4, max_links=9), st.data())
    def test_repair_counters_never_exceed_full_rebuild(self, links, data):
        from repro.scheduling.incremental import IncrementalScheduler

        inc, _state, _new_state, new_links, new_ids, report = self._warm(
            links, data
        )
        _s, rebuild_report = IncrementalScheduler(MODEL, "oblivious").schedule(
            new_links
        )
        cost, rebuild = report.repair_cost, rebuild_report.repair_cost
        n = len(new_links)
        assert not cost["cold_start"] and rebuild["cold_start"]
        assert cost["links_total"] == rebuild["links_total"] == n
        assert rebuild["links_reexamined"] == rebuild["links_inserted"] == n
        assert cost["links_reexamined"] <= rebuild["links_reexamined"]
        assert cost["links_inserted"] <= rebuild["links_inserted"]
        assert cost["slots_opened"] <= cost["links_inserted"]
        assert cost["links_evicted"] <= cost["links_carried"]
        arrived = len(set(new_ids) - {(i, 10_000 + i) for i in range(len(links))})
        assert cost["links_carried"] + arrived == n
