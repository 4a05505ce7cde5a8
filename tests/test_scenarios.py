"""Tests for the dynamic scenario subsystem (`repro.scenarios`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import PointSet, uniform_square
from repro.api.config import PipelineConfig
from repro.api.pipeline import Pipeline
from repro.errors import ConfigurationError, GeometryError
from repro.runner import SweepEngine, SweepSpec, run_cell
from repro.runner.spec import CellSpec
from repro.scenarios import (
    EpochInstance,
    ScenarioRunner,
    complete_forest,
    edge_ids,
    repair_tree,
    scenarios,
)
from repro.spanning.tree import AggregationTree
from repro.store import keys
from repro.store.stages import _encode_schedule
from repro.store.store import StageStore

CONFIG = PipelineConfig(topology="square", n=24, seed=3)


def fresh_runner(scenario, **kwargs):
    kwargs.setdefault("store", StageStore())
    return ScenarioRunner(CONFIG, scenario, **kwargs)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestScenarioRegistry:
    def test_builtin_names(self):
        assert scenarios.names() == (
            "static", "churn", "mobility", "fading", "arrivals",
        )

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ConfigurationError, match="churn"):
            ScenarioRunner(CONFIG, "earthquake")

    def test_epochs_validated(self):
        with pytest.raises(ConfigurationError, match="epochs"):
            ScenarioRunner(CONFIG, "static", epochs=0)

    @pytest.mark.parametrize("seed", [float("nan"), 2.7, -1, "3", True], ids=repr)
    def test_scenario_seed_must_be_a_non_negative_int(self, seed):
        """NaN used to raise a bare ValueError, 2.7 was truncated to 2."""
        with pytest.raises(ConfigurationError, match="scenario_seed"):
            ScenarioRunner(CONFIG, "static", scenario_seed=seed)

    def test_numpy_integer_scenario_seed_accepted(self):
        runner = ScenarioRunner(CONFIG, "static", scenario_seed=np.int64(7))
        assert runner.scenario_seed == 7 and type(runner.scenario_seed) is int

    def test_sweep_spec_validates_scenario_axis(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            SweepSpec(
                topologies=("square",), ns=(10,), modes=("global",),
                scenarios=("nope",),
            )
        with pytest.raises(ConfigurationError, match="epochs"):
            SweepSpec(
                topologies=("square",), ns=(10,), modes=("global",), epochs=0,
            )


# ---------------------------------------------------------------------------
# Incremental repair
# ---------------------------------------------------------------------------
class TestRepair:
    def test_complete_forest_spans_and_keeps_forced_edges(self):
        points = uniform_square(12, rng=5)
        forced = [(0, 1), (2, 3), (4, 5)]
        edges = complete_forest(points, forced)
        assert len(edges) == len(points) - 1
        assert set(forced) <= set(edges)
        AggregationTree(points, edges, sink=0)  # validates spanning

    def test_complete_forest_rejects_cycles(self):
        points = uniform_square(4, rng=5)
        with pytest.raises(GeometryError, match="cycle"):
            complete_forest(points, [(0, 1), (1, 2), (2, 0)])

    @pytest.mark.parametrize("bad", [(0, -1), (0, 7)])
    def test_complete_forest_rejects_out_of_range_endpoints(self, bad):
        points = uniform_square(4, rng=5)
        with pytest.raises(GeometryError, match=rf"edge \({bad[0]}, {bad[1]}\)"):
            complete_forest(points, [(1, 2), bad])

    def test_repair_after_departure_keeps_surviving_edges(self):
        points = uniform_square(10, rng=1)
        tree = AggregationTree.mst(points)
        ids = np.arange(10)
        previous = edge_ids(tree.edges, ids)
        survivors = np.array([0, 1, 2, 3, 4, 6, 7, 8, 9])  # node 5 departs
        new_points = PointSet(points.coords[survivors], check=False)
        repaired = repair_tree(new_points, survivors, previous, sink=0)
        assert len(repaired.edges) == 8
        # Every surviving edge of the old tree is kept: only the edges
        # that touched the departed node needed replacing.
        survived = {pair for pair in previous if 5 not in pair}
        assert survived <= edge_ids(repaired.edges, survivors)
        cost = len(edge_ids(repaired.edges, survivors) - previous)
        assert cost == len(previous) - len(survived) - 1

    def test_repair_with_no_change_keeps_the_tree(self):
        points = uniform_square(10, rng=1)
        tree = AggregationTree.mst(points)
        ids = np.arange(10)
        repaired = repair_tree(points, ids, edge_ids(tree.edges, ids), sink=0)
        assert edge_ids(repaired.edges, ids) == edge_ids(tree.edges, ids)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------
class TestTransforms:
    def timeline(self, name, epochs=3, **params):
        points = Pipeline(CONFIG, store=StageStore()).deploy()
        spec = scenarios.get(name)
        from repro.sinr.model import SINRModel

        model = SINRModel(alpha=CONFIG.alpha, beta=CONFIG.beta)
        return list(
            spec.make(CONFIG, points, model, epochs=epochs, rng=0, **params)
        )

    def test_static_is_identity(self):
        instances = self.timeline("static")
        assert [i.index for i in instances] == [1, 2, 3]
        for inst in instances:
            assert not inst.scenario_scoped and not inst.changed
            assert inst.tree_policy == "reuse"

    def test_churn_preserves_sink_and_is_deterministic(self):
        a = self.timeline("churn", p_leave=0.3)
        b = self.timeline("churn", p_leave=0.3)
        for x, y in zip(a, b):
            assert np.array_equal(x.node_ids, y.node_ids)
            assert np.array_equal(x.points.coords, y.points.coords)
            assert x.node_ids[x.sink] == 0  # the sink id survives every epoch
            assert x.scenario_scoped and x.tree_policy == "repair"

    def test_churn_probability_validated(self):
        with pytest.raises(ConfigurationError, match="p_leave"):
            self.timeline("churn", p_leave=1.5)

    def test_mobility_moves_everyone_but_the_sink(self):
        base = Pipeline(CONFIG, store=StageStore()).deploy()
        instances = self.timeline("mobility", speed=0.2)
        sink_home = base.coords[CONFIG.sink]
        for inst in instances:
            assert np.array_equal(inst.points.coords[inst.sink], sink_home)
            assert inst.changed and inst.tree_policy == "reuse"
        moved = np.abs(instances[-1].points.coords - base.coords).max()
        assert moved > 0

    def test_mobility_rebuild_flag(self):
        instances = self.timeline("mobility", rebuild=True, epochs=2)
        assert all(i.tree_policy == "rebuild" for i in instances)

    def test_fading_perturbs_beta_only(self):
        instances = self.timeline("fading", sigma=0.5)
        betas = {i.model.beta for i in instances}
        assert len(betas) == 3  # lognormal draws, almost surely distinct
        for inst in instances:
            assert inst.model.alpha == CONFIG.alpha
            assert not inst.scenario_scoped

    def test_fading_rejects_unknown_target(self):
        with pytest.raises(ConfigurationError, match="target"):
            self.timeline("fading", target="phase")

    def test_fading_noise_target_rejected_on_noiseless_models(self):
        """Scaling a zero noise floor would silently measure the
        unperturbed baseline — fail loudly instead."""
        with pytest.raises(ConfigurationError, match="noiseless"):
            self.timeline("fading", target="noise")

    def test_fading_noise_target_works_with_a_noise_floor(self):
        from repro.sinr.model import SINRModel

        points = Pipeline(CONFIG, store=StageStore()).deploy()
        noisy = SINRModel(alpha=3.0, beta=1.0, noise=1e-9)
        instances = list(
            scenarios.get("fading").make(
                CONFIG, points, noisy, epochs=3, rng=0, target="noise"
            )
        )
        assert len({i.model.noise for i in instances}) == 3
        assert all(i.model.beta == 1.0 for i in instances)

    def test_arrivals_draw_online_frames(self):
        instances = self.timeline("arrivals", rate=4.0, load=2.0, epochs=5)
        counts = [i.num_frames for i in instances]
        assert any(c > 0 for c in counts)
        assert all(i.load == 2.0 for i in instances)

    def test_epoch_instance_validation(self):
        points = uniform_square(5, rng=0)
        from repro.sinr.model import SINRModel

        model = SINRModel()
        with pytest.raises(ConfigurationError, match="tree policy"):
            EpochInstance(
                index=1, points=points, node_ids=np.arange(5), sink=0,
                model=model, tree_policy="replant",
            )
        with pytest.raises(ConfigurationError, match="sink"):
            EpochInstance(
                index=1, points=points, node_ids=np.arange(5), sink=9,
                model=model,
            )

    @pytest.mark.parametrize("load", [float("nan"), float("inf")])
    def test_epoch_instance_load_must_be_finite_and_positive(self, load):
        """Checked on the instance, so a user-registered transform gets
        it too: a NaN load used to end in a bare ValueError when the
        runner computed the injection period, and an infinite one
        injected every slot."""
        from repro.sinr.model import SINRModel

        with pytest.raises(ConfigurationError, match="load"):
            EpochInstance(
                index=1, points=uniform_square(5, rng=0),
                node_ids=np.arange(5), sink=0, model=SINRModel(), load=load,
            )

    @pytest.mark.parametrize(
        "name, params",
        [
            ("arrivals", {"rate": float("nan")}),
            ("arrivals", {"rate": float("inf")}),
            ("arrivals", {"load": float("nan")}),
            ("arrivals", {"load": float("inf")}),
            ("mobility", {"speed": float("inf")}),
            ("mobility", {"speed": float("nan")}),
            ("fading", {"sigma": float("nan")}),
            ("fading", {"sigma": float("inf")}),
        ],
        ids=repr,
    )
    def test_non_finite_rates_rejected(self, name, params):
        with pytest.raises(ConfigurationError, match=next(iter(params))):
            self.timeline(name, **params)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
class TestScenarioRunner:
    def test_static_epochs_are_bit_identical_to_the_plain_pipeline(self):
        """The regression anchor: every static epoch resolves to the
        very artifact a plain pipeline run produces."""
        store = StageStore()
        plain = Pipeline(CONFIG, store=store).run()
        result = ScenarioRunner(CONFIG, "static", epochs=2, store=store).run()
        assert result.baseline_slots == plain.num_slots
        sched_key = keys.schedule_key(CONFIG)
        cached = store.peek("schedule", sched_key)
        assert cached is not None
        for epoch in result.epoch_results:
            assert epoch.slots == plain.num_slots
            assert epoch.slots_vs_baseline == 1.0
            assert epoch.repair_cost == 0
            assert epoch.feasibility_violations == 0
            # No epoch ever rebuilt a stage: hits only.
            assert all(c["builds"] == 0 for c in epoch.store.values())
            assert epoch.store["deploy"]["hits"] >= 1
        # Byte-level lock: the epoch schedule *is* the plain schedule.
        fresh = Pipeline(CONFIG, store=StageStore()).run()
        assert json.dumps(
            _encode_schedule((plain.schedule, plain.report)), sort_keys=True
        ) == json.dumps(
            _encode_schedule((fresh.schedule, fresh.report)), sort_keys=True
        )

    def test_churn_runs_and_counts_repair(self):
        result = fresh_runner("churn", epochs=3, params={"p_leave": 0.2}).run()
        assert len(result.epoch_results) == 3
        for epoch in result.epoch_results:
            assert epoch.n >= 2
            assert epoch.slots >= 1
            assert epoch.repair_cost >= 0
        assert result.degradation["total_repair_cost"] >= 1

    def test_churn_epochs_reuse_the_store_chain(self):
        """Each epoch re-resolves its input deployment through the
        store — epoch 2 onward must see deploy hits (the CI
        scenario-smoke assertion, locked here)."""
        result = fresh_runner("churn", epochs=3).run()
        for epoch in result.epoch_results[1:]:
            assert epoch.store["deploy"]["hits"] > 0

    def test_churn_rerun_hits_every_epoch_stage(self):
        store = StageStore()
        first = ScenarioRunner(CONFIG, "churn", epochs=2, store=store).run()
        again = ScenarioRunner(CONFIG, "churn", epochs=2, store=store).run()
        for a, b in zip(first.epoch_results, again.epoch_results):
            assert (a.n, a.slots, a.repair_cost) == (b.n, b.slots, b.repair_cost)
            assert all(c["builds"] == 0 for c in b.store.values())

    def test_churn_epochs_persist_to_disk_tier(self, tmp_path):
        disk = tmp_path / "cache"
        first = ScenarioRunner(
            CONFIG, "churn", epochs=2, store=StageStore(disk=disk)
        ).run()
        resumed = ScenarioRunner(
            CONFIG, "churn", epochs=2, store=StageStore(disk=disk)
        ).run()
        assert [e.slots for e in resumed.epoch_results] == [
            e.slots for e in first.epoch_results
        ]
        disk_hits = sum(
            c["disk_hits"]
            for e in resumed.epoch_results
            for c in e.store.values()
        )
        assert disk_hits > 0
        # The links stage is memory-only by design (it carries the
        # process-local kernel cache); every persisted stage resumes
        # from disk without rebuilding.
        builds = sum(
            counters["builds"]
            for e in resumed.epoch_results
            for stage, counters in e.store.items()
            if stage != "links"
        )
        assert builds == 0

    def test_incremental_resume_continues_the_carried_chain(self, tmp_path):
        """Regression: resuming a timeline mid-way with the delta
        scheduler must recompute from the last persisted epoch's
        carried state — never silently fall back to a from-scratch
        build.  The carried-state digest in the schedule key makes the
        persisted prefix replay as disk hits, and the continuation
        epochs build warm (``cold_start`` False)."""
        cfg = CONFIG.replace(scheduler="incremental-certified", power="oblivious")
        disk = tmp_path / "cache"
        first = ScenarioRunner(
            cfg, "churn", epochs=2, store=StageStore(disk=disk)
        ).run()
        assert all(
            e.schedule_repair is not None for e in first.epoch_results
        )
        resumed = ScenarioRunner(
            cfg, "churn", epochs=4, store=StageStore(disk=disk)
        ).run()
        # Persisted prefix: identical epochs served from the store,
        # repair counters round-tripped through the disk codec.
        for e_first, e_resumed in zip(
            first.epoch_results, resumed.epoch_results
        ):
            assert e_resumed.slots == e_first.slots
            assert e_resumed.schedule_repair == e_first.schedule_repair
            assert e_resumed.store["schedule"]["builds"] == 0
        # Continuation: recomputed incrementally from the persisted
        # epoch-2 carried state.
        for e in resumed.epoch_results[2:]:
            assert e.store["schedule"]["builds"] == 1
            assert e.schedule_repair["cold_start"] is False
            assert e.schedule_repair["links_reexamined"] <= e.links
        assert all(
            e.feasibility_violations == 0 for e in resumed.epoch_results
        )

    def test_incremental_static_epochs_match_scratch_slot_counts(self):
        cfg = CONFIG.replace(scheduler="incremental-certified", power="oblivious")
        inc = ScenarioRunner(cfg, "static", epochs=2, store=StageStore()).run()
        scratch = ScenarioRunner(
            CONFIG.replace(power="oblivious"), "static", epochs=2,
            store=StageStore(),
        ).run()
        assert [e.slots for e in inc.epoch_results] == [
            e.slots for e in scratch.epoch_results
        ]

    def test_mobility_degrades_as_links_stretch(self):
        result = fresh_runner("mobility", epochs=3, params={"speed": 0.2}).run()
        assert result.degradation["max_slots_ratio"] >= 1.0
        for epoch in result.epoch_results:
            assert epoch.repair_cost == 0  # structure kept, links re-derived
            assert epoch.feasibility_violations == 0  # re-certified each epoch

    def test_fading_checks_the_stale_baseline_schedule(self):
        result = fresh_runner(
            "fading", epochs=4, params={"sigma": 0.6}, scenario_seed=1
        ).run()
        for epoch in result.epoch_results:
            assert epoch.stale_violations is not None
            assert epoch.feasibility_violations == 0  # rebuilt under epoch model
            assert epoch.store["deploy"]["builds"] == 0
            assert epoch.store["tree"]["builds"] == 0
        assert result.degradation["total_stale_violations"] >= 0

    def test_arrivals_simulate_online_load(self):
        result = fresh_runner(
            "arrivals", epochs=4, params={"rate": 3.0, "load": 1.0}
        ).run()
        simulated = [e for e in result.epoch_results if e.frames_injected]
        assert simulated, "expected at least one epoch with arrivals"
        for epoch in simulated:
            assert epoch.stable is True  # load 1.0 operates at the certified rate
            assert epoch.frames_completed == epoch.frames_injected
        # The schedule is never rebuilt: arrivals only vary the load.
        assert all(
            e.store["schedule"]["builds"] == 0 for e in result.epoch_results
        )

    def test_short_timelines_from_custom_transforms_fail_loudly(self):
        """A user-registered transform yielding fewer instances than
        requested must raise, not persist rows that poison resume."""
        from repro.scenarios import register_scenario, scenarios as registry

        @register_scenario("short-lived", description="test-only")
        def _short(config, points, model, *, epochs, rng=None):
            yield from scenarios.get("static").make(
                config, points, model, epochs=1, rng=rng
            )

        try:
            with pytest.raises(ConfigurationError, match="expected 3"):
                fresh_runner("short-lived", epochs=3).run()
        finally:
            registry.unregister("short-lived")

    #: Bad values of every built-in transform's parameters.
    BAD_PARAMS = [
        ("arrivals", {"load": float("nan")}, "load"),
        ("churn", {"p_leave": 1.5}, "p_leave"),
        ("mobility", {"speed": 0}, "speed"),
        ("fading", {"sigma": float("inf")}, "sigma"),
        ("fading", {"target": "gain"}, "target"),
        ("fading", {"target": "noise"}, "noiseless"),
    ]

    @pytest.mark.parametrize("name, params, match", BAD_PARAMS, ids=repr)
    def test_bad_params_rejected_before_the_baseline(self, name, params, match):
        """The registered check runs in the constructor: no deploy, tree
        or schedule is built (or persisted) for a run that is rejected."""
        store = StageStore()
        with pytest.raises(ConfigurationError, match=match):
            ScenarioRunner(
                PipelineConfig(topology="square", n=60, power="oblivious"),
                name, params=params, store=store,
            )
        assert store.stats.snapshot() == {}

    def test_a_spec_without_a_check_still_runs(self):
        """``ScenarioSpec(name, make, description)`` leaves ``check``
        unset; its generator's own checks still apply at epoch 1."""
        from repro.scenarios import ScenarioSpec

        spec = scenarios.get("arrivals")
        bare = ScenarioSpec(spec.name, spec.make, spec.description)
        assert bare.check is None
        scenarios.register("arrivals", bare, overwrite=True)
        try:
            runner = fresh_runner("arrivals", epochs=1, params={"load": float("nan")})
            with pytest.raises(ConfigurationError, match="load"):
                runner.run()
        finally:
            scenarios.register("arrivals", spec, overwrite=True)

    def test_result_json_round_trips(self):
        result = fresh_runner("churn", epochs=2).run()
        payload = json.loads(json.dumps(result.to_json_dict(), sort_keys=True))
        assert payload["scenario"] == "churn"
        assert len(payload["epoch_results"]) == 2
        assert payload["degradation"]["epochs"] == 2


# ---------------------------------------------------------------------------
# Sweep integration
# ---------------------------------------------------------------------------
class TestScenarioSweepAxis:
    def test_cell_ids_only_change_for_dynamic_cells(self):
        static = CellSpec(
            topology="square", n=10, mode="global", alpha=3.0, beta=1.0, seed=0
        )
        assert not static.is_dynamic
        assert "scn-" not in static.cell_id
        dynamic = CellSpec(
            topology="square", n=10, mode="global", alpha=3.0, beta=1.0,
            seed=0, scenario="churn", epochs=2,
        )
        assert dynamic.is_dynamic
        assert dynamic.cell_id.endswith("/scn-churn-e2")

    def test_static_scenario_rows_match_plain_rows(self, tmp_path):
        """The acceptance lock: a scenario=static sweep row carries
        exactly the plain sweep's measurements."""
        axes = dict(topologies=("square",), ns=(16,), modes=("global",), seeds=2)
        plain = SweepEngine(
            SweepSpec(**axes), out_path=tmp_path / "plain.jsonl"
        ).run()
        scenario = SweepEngine(
            SweepSpec(**axes, scenarios=("static",), epochs=2),
            out_path=tmp_path / "scenario.jsonl",
        ).run()
        assert plain.failed == 0 and scenario.failed == 0
        scenario_only = {
            "cell_id", "scenario", "scenario_epochs", "epoch_metrics",
            "degradation", "wall_time_s",
        }
        for p, s in zip(plain.results, scenario.results):
            pd, sd = p.to_json_dict(), s.to_json_dict()
            for key in scenario_only:
                pd.pop(key), sd.pop(key)
            assert pd == sd
            assert s.scenario_epochs == 2
            assert len(s.epoch_metrics) == 2
            assert s.degradation["max_slots_ratio"] == 1.0

    def test_sweep_over_static_and_churn_persists_epoch_metrics(self, tmp_path):
        out = tmp_path / "dyn.jsonl"
        spec = SweepSpec(
            topologies=("square",), ns=(14,), modes=("global",),
            scenarios=("static", "churn"), epochs=2,
        )
        report = SweepEngine(spec, out_path=out).run()
        assert report.failed == 0 and report.executed == 2
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["scenario"] for r in rows] == ["static", "churn"]
        for row in rows:
            assert len(row["epoch_metrics"]) == 2
            assert row["degradation"]["epochs"] == 2
            for epoch in row["epoch_metrics"]:
                assert epoch["slots"] >= 1 and epoch["n"] >= 2
        # Resume: nothing re-runs, rows survive verbatim.
        resumed = SweepEngine(spec, out_path=out).run()
        assert resumed.executed == 0 and resumed.skipped == 2

    def test_resume_reruns_rows_missing_epoch_metrics(self, tmp_path):
        out = tmp_path / "partial.jsonl"
        spec = SweepSpec(
            topologies=("square",), ns=(12,), modes=("global",),
            scenarios=("churn",), epochs=2,
        )
        report = SweepEngine(spec, out_path=out).run()
        assert report.executed == 1
        # Strip the epoch payload as a pre-scenario writer would have.
        row = json.loads(out.read_text())
        row["epoch_metrics"] = None
        out.write_text(json.dumps(row, sort_keys=True) + "\n")
        again = SweepEngine(spec, out_path=out).run()
        assert again.executed == 1 and again.skipped == 0

    def test_run_cell_error_isolation_covers_scenarios(self):
        cell = CellSpec(
            topology="square", n=2, mode="global", alpha=3.0, beta=1.0,
            seed=0, scenario="churn", epochs=2,
        )
        result = run_cell(cell, store=StageStore())
        # n=2 churn instances stay schedulable (the transform refuses to
        # drop below 2 nodes), so this must succeed, not error.
        assert result.ok
        assert len(result.epoch_metrics) == 2
