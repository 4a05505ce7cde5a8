"""Tests for the content-addressed stage store (keys, tiers, pipeline wiring)."""

import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import PipelineConfig
from repro.api.pipeline import Pipeline
from repro.errors import ConfigurationError
from repro.geometry.generators import uniform_square
from repro.sinr.model import SINRModel
from repro.store import (
    STORE_SCHEMA_VERSION,
    DiskTier,
    StageStore,
    configure_default_store,
    deploy_key,
    get_default_store,
    links_key,
    reset_default_store,
    schedule_key,
    stage_keys,
    tree_key,
)
from repro.store.store import StoreStats


def cfg(**overrides) -> PipelineConfig:
    base = dict(topology="square", n=16, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_model_axes_do_not_split_deploy_or_tree(self):
        a, b = cfg(alpha=3.0, power="global"), cfg(alpha=4.0, power="oblivious")
        assert deploy_key(a) == deploy_key(b)
        assert tree_key(a) == tree_key(b)
        assert links_key(a) == links_key(b)
        assert schedule_key(a) != schedule_key(b)

    def test_instance_axes_split_deploy(self):
        base = cfg()
        assert deploy_key(base) != deploy_key(cfg(n=17))
        assert deploy_key(base) != deploy_key(cfg(seed=1))
        assert deploy_key(base) != deploy_key(cfg(topology="disk"))
        assert deploy_key(base) != deploy_key(
            cfg(topology_params={"side": 2.0})
        )

    def test_deterministic_topology_ignores_seed(self):
        a = PipelineConfig(topology="grid", n=9, seed=0)
        b = PipelineConfig(topology="grid", n=9, seed=7)
        assert deploy_key(a) == deploy_key(b)
        assert deploy_key(a) != deploy_key(PipelineConfig(topology="grid", n=12))

    def test_tree_axes_split_tree_but_not_deploy(self):
        a, b = cfg(tree="mst"), cfg(tree="matching")
        assert deploy_key(a) == deploy_key(b)
        assert tree_key(a) != tree_key(b)
        assert tree_key(cfg()) != tree_key(cfg(sink=1))
        assert tree_key(cfg(tree="knn-mst")) != tree_key(
            cfg(tree="knn-mst", tree_params={"k": 5})
        )

    def test_schedule_key_tracks_declared_constants_only(self):
        # gamma reaches the certified scheduler but not tdma.
        assert schedule_key(cfg(gamma=2.0)) != schedule_key(cfg())
        assert schedule_key(cfg(scheduler="tdma", gamma=2.0)) == schedule_key(
            cfg(scheduler="tdma")
        )

    def test_schedule_key_tracks_explicit_model(self):
        config = cfg()
        plain = SINRModel(alpha=config.alpha, beta=config.beta)
        noisy = SINRModel(alpha=config.alpha, beta=config.beta, noise=0.1)
        assert schedule_key(config, plain) == schedule_key(config)
        assert schedule_key(config, noisy) != schedule_key(config)

    def test_stage_keys_cover_all_stages(self):
        keys = stage_keys(cfg())
        assert set(keys) == {"deploy", "tree", "links", "schedule"}
        assert keys["deploy"] == deploy_key(cfg())


# ----------------------------------------------------------------------
# StageStore mechanics
# ----------------------------------------------------------------------
class TestStageStore:
    def test_builds_once_then_hits(self):
        store = StageStore()
        calls = []
        for _ in range(3):
            value = store.get_or_build("deploy", "k", lambda: calls.append(1) or "v")
        assert value == "v" and len(calls) == 1
        counters = store.stats.snapshot()["deploy"]
        assert counters["builds"] == 1 and counters["hits"] == 2

    def test_stages_namespace_keys(self):
        store = StageStore()
        store.get_or_build("deploy", "k", lambda: "points")
        assert store.get_or_build("tree", "k", lambda: "tree") == "tree"

    def test_lru_evicts_oldest(self):
        store = StageStore(memory_entries=2)
        store.get_or_build("s", "a", lambda: 1)
        store.get_or_build("s", "b", lambda: 2)
        store.get_or_build("s", "c", lambda: 3)  # evicts "a"
        assert store.peek("s", "a") is None and store.peek("s", "c") == 3
        rebuilt = store.get_or_build("s", "a", lambda: 11)
        assert rebuilt == 11  # really rebuilt, not stale

    def test_peek_never_builds_or_counts(self):
        store = StageStore()
        assert store.peek("deploy", "missing") is None
        assert store.stats.snapshot() == {}

    def test_values_filters_by_stage(self):
        store = StageStore()
        store.get_or_build("links", "a", lambda: "L1")
        store.get_or_build("tree", "t", lambda: "T")
        store.get_or_build("links", "b", lambda: "L2")
        assert list(store.values("links")) == ["L1", "L2"]

    def test_bad_memory_entries_rejected(self):
        with pytest.raises(ConfigurationError, match="memory_entries"):
            StageStore(memory_entries=0)

    def test_stats_delta_and_merge(self):
        store = StageStore()
        store.get_or_build("deploy", "a", lambda: 1)
        before = store.stats.snapshot()
        store.get_or_build("deploy", "a", lambda: 1)
        delta = store.stats.delta(before)
        assert delta["deploy"]["hits"] == 1 and delta["deploy"]["builds"] == 0
        total = StoreStats.merge({}, delta)
        StoreStats.merge(total, delta)
        assert total["deploy"]["hits"] == 2


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------
class TestDiskTier:
    def test_artifacts_survive_process_rotation(self, tmp_path):
        config = cfg()
        first = StageStore(disk=tmp_path / "cache")
        a1 = Pipeline(config, store=first).run()
        # A brand-new store with the same directory models a new process.
        second = StageStore(disk=tmp_path / "cache")
        a2 = Pipeline(config, store=second).run()
        counters = second.stats.snapshot()
        assert counters["deploy"]["builds"] == 0
        assert counters["deploy"]["disk_hits"] == 1
        assert counters["tree"]["builds"] == 0
        assert counters["schedule"]["builds"] == 0
        assert a2.num_slots == a1.num_slots
        assert np.allclose(a2.points.coords, a1.points.coords)
        assert a2.report.initial_colors == a1.report.initial_colors

    def test_links_stage_never_persisted(self, tmp_path):
        store = StageStore(disk=tmp_path / "cache")
        Pipeline(cfg(), store=store).run()
        stages_on_disk = {p.name for p in (tmp_path / "cache").iterdir()}
        assert "links" not in stages_on_disk
        assert {"deploy", "tree", "schedule"} <= stages_on_disk

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        tier = DiskTier(tmp_path / "cache")
        tier.write("deploy", "k", [1, 2, 3])
        path = tmp_path / "cache" / "deploy" / "k.pkl"
        path.write_bytes(b"not a pickle")
        store = StageStore(disk=tier)
        value = store.get_or_build(
            "deploy", "k", lambda: "rebuilt", encode=lambda v: v, decode=lambda p: p
        )
        assert value == "rebuilt"
        assert store.stats.snapshot()["deploy"]["builds"] == 1
        # ... and the rebuild repaired the file.
        assert tier.load("deploy", "k") == "rebuilt"

    def test_foreign_schema_version_is_a_miss(self, tmp_path):
        tier = DiskTier(tmp_path / "cache")
        path = tmp_path / "cache" / "deploy" / "k.pkl"
        path.parent.mkdir(parents=True)
        envelope = {
            "schema": STORE_SCHEMA_VERSION + 1,
            "stage": "deploy",
            "key": "k",
            "payload": "stale",
        }
        path.write_bytes(pickle.dumps(envelope))
        store = StageStore(disk=tier)
        value = store.get_or_build(
            "deploy", "k", lambda: "new", encode=lambda v: v, decode=lambda p: p
        )
        assert value == "new"
        assert store.stats.snapshot()["deploy"]["disk_hits"] == 0

    def test_key_mismatch_is_a_miss(self, tmp_path):
        tier = DiskTier(tmp_path / "cache")
        tier.write("deploy", "a", "value-for-a")
        path_a = tmp_path / "cache" / "deploy" / "a.pkl"
        path_b = tmp_path / "cache" / "deploy" / "b.pkl"
        path_b.write_bytes(path_a.read_bytes())  # renamed/copied file
        store = StageStore(disk=tier)
        value = store.get_or_build(
            "deploy", "b", lambda: "fresh-b", encode=lambda v: v, decode=lambda p: p
        )
        assert value == "fresh-b"
        assert store.stats.snapshot()["deploy"]["disk_hits"] == 0

    def test_stats_and_clear(self, tmp_path):
        tier = DiskTier(tmp_path / "cache")
        tier.write("deploy", "a", [1.0] * 10)
        tier.write("schedule", "b", [2.0])
        stats = tier.stats()
        assert stats["deploy"]["entries"] == 1 and stats["deploy"]["bytes"] > 0
        assert set(stats) == {"deploy", "schedule"}
        assert tier.clear() == 2
        assert tier.stats() == {}
        assert tier.clear() == 0  # idempotent

    def test_missing_directory_is_empty(self, tmp_path):
        tier = DiskTier(tmp_path / "never-created")
        assert tier.stats() == {} and tier.clear() == 0


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
class TestPipelineStore:
    def test_repeat_run_shares_every_artifact(self):
        store = StageStore()
        config = cfg()
        a1 = Pipeline(config, store=store).run()
        a2 = Pipeline(config, store=store).run()
        assert a2.points is a1.points
        assert a2.tree is a1.tree
        assert a2.schedule is a1.schedule
        delta = a2.provenance["store"]
        assert delta["deploy"]["builds"] == 0
        assert delta["schedule"]["builds"] == 0

    def test_alpha_sweep_shares_deploy_and_tree(self):
        store = StageStore()
        arts = [
            Pipeline(cfg(alpha=alpha, power=mode), store=store).run()
            for alpha in (3.0, 3.5, 4.0)
            for mode in ("global", "oblivious")
        ]
        counters = store.stats.snapshot()
        assert counters["deploy"]["builds"] == 1
        assert counters["tree"]["builds"] == 1
        assert counters["schedule"]["builds"] == 6
        assert all(a.points is arts[0].points for a in arts)

    def test_explicit_points_bypass_store(self):
        store = StageStore()
        points = uniform_square(12, rng=5)
        artifact = Pipeline(cfg(n=12), store=store).run(points)
        assert artifact.points is points
        assert len(store) == 0  # nothing cached, nothing aliased
        assert artifact.provenance["store"] == {}

    def test_cached_and_uncached_results_agree(self):
        config = cfg(power="oblivious", num_frames=3)
        store = StageStore()
        Pipeline(config, store=store).run()
        warm = Pipeline(config, store=store).run()
        cold = Pipeline(config, store=StageStore()).run()
        assert warm.num_slots == cold.num_slots
        assert warm.simulation.frames_completed == cold.simulation.frames_completed
        assert [s.link_indices for s in warm.schedule.slots] == [
            s.link_indices for s in cold.schedule.slots
        ]

    def test_explicit_noisy_model_gets_own_schedule_entry(self):
        store = StageStore()
        config = cfg(power="uniform", scheduler="tdma")
        plain = Pipeline(config, store=store).run()
        noisy_model = SINRModel(
            alpha=config.alpha, beta=config.beta, noise=1e-9
        )
        noisy = Pipeline(config, model=noisy_model, store=store).run()
        assert noisy.points is plain.points  # upstream stages shared
        assert store.stats.snapshot()["schedule"]["builds"] == 2


# ----------------------------------------------------------------------
# The process default store
# ----------------------------------------------------------------------
class TestDefaultStore:
    def test_pipelines_share_the_default_store(self):
        reset_default_store()
        try:
            a1 = Pipeline(cfg()).run()
            a2 = Pipeline(cfg()).run()
            assert a2.points is a1.points
            assert get_default_store().stats.snapshot()["deploy"]["builds"] == 1
        finally:
            reset_default_store()

    def test_store_none_means_the_default_store(self):
        from repro.scenarios.runner import ScenarioRunner

        reset_default_store()
        try:
            default = get_default_store()
            assert Pipeline(cfg(), store=None).store is default
            assert ScenarioRunner(cfg(), store=None).store is default
            # An empty store is falsy (it has a length); it is still kept.
            empty = StageStore()
            assert not empty
            assert Pipeline(cfg(), store=empty).store is empty
            assert ScenarioRunner(cfg(), store=empty).store is empty
        finally:
            reset_default_store()

    def test_configure_replaces_the_default(self, tmp_path):
        try:
            store = configure_default_store(
                memory_entries=4, disk=tmp_path / "cache"
            )
            assert get_default_store() is store
            assert store.memory_entries == 4
            Pipeline(cfg()).run()
            assert (tmp_path / "cache" / "deploy").is_dir()
        finally:
            reset_default_store()


# ---------------------------------------------------------------------------
# One owner of stage keys and codecs
# ---------------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def stage_boundary_violations(source: str) -> list:
    """Where ``source`` keys or persists a stage itself: an import of
    :mod:`repro.store.keys` (or of a key function re-exported by
    :mod:`repro.store`), or any ``_``-prefixed name of
    :mod:`repro.store.stages`, imported or read as an attribute."""
    from repro.store import keys

    found, stage_modules = [], {"repro.store.stages"}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.store.keys":
                    found.append(f"line {node.lineno}: import {alias.name}")
                elif alias.name == "repro.store.stages" and alias.asname:
                    stage_modules.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if (
                    node.module == "repro.store.keys"
                    or name == "repro.store.keys"
                    or (node.module == "repro.store" and alias.name in keys.__all__)
                    or (node.module == "repro.store.stages" and alias.name.startswith("_"))
                ):
                    found.append(f"line {node.lineno}: from {node.module} import {alias.name}")
                elif name == "repro.store.stages":
                    stage_modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and ast.unparse(node.value) in stage_modules
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


class TestStageBoundary:
    def test_scenario_keyed_stages_need_the_epoch_inputs(self):
        """Under an epoch key the config cannot rebuild the artifact, so
        a missing epoch input is refused rather than the base artifact
        stored in its place."""
        from repro.store import stages

        sig = {"scenario": "churn", "scenario_seed": 0, "params": {}, "epoch": 1}
        store = StageStore()
        with pytest.raises(ConfigurationError, match="needs its points"):
            stages.deployment_for(cfg(), store, scenario=sig)
        with pytest.raises(ConfigurationError, match="needs its points and build"):
            stages.tree_for(cfg(), store, scenario=sig)
        with pytest.raises(ConfigurationError, match="needs its links"):
            stages.schedule_for(cfg(), store, scenario=sig)
        assert len(store) == 0

    def test_no_module_outside_the_store_keys_or_persists_a_stage(self):
        """``repro.store.stages`` owns every stage key and disk codec:
        pipeline runs and scenario epochs both resolve through its
        public ``*_for`` functions."""
        offenders = {}
        for path in sorted(SRC.rglob("*.py")):
            if path.parent.name == "store" and path.parent.parent == SRC:
                continue
            found = stage_boundary_violations(path.read_text(encoding="utf-8"))
            if found:
                offenders[str(path.relative_to(SRC))] = found
        assert offenders == {}

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.store import keys, stages",
            "import repro.store.keys",
            "from repro.store.keys import deploy_key",
            "from repro.store import tree_key",
            "from repro.store.stages import _encode_tree",
            "from repro.store import stages\nstages._decode_schedule(p, l, m)",
            "from repro.store import stages as s\nenc = s._encode_deployment",
            "import repro.store.stages\nrepro.store.stages._encode_tree(t)",
        ],
    )
    def test_the_check_sees_each_form(self, source):
        assert stage_boundary_violations(source)

    def test_public_stage_functions_pass(self):
        source = (
            "from repro.store import StageStore, stages\n"
            "from repro.store.stages import schedule_for\n"
            "stages.tree_for(c, s)\n"
        )
        assert stage_boundary_violations(source) == []
