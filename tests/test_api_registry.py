"""API-surface lock tests: registries, pipeline, config, back-compat."""

import json

import numpy as np
import pytest

import repro
from repro.api import (
    MeasurementContext,
    Pipeline,
    PipelineConfig,
    Registry,
    RunArtifact,
    measurements,
    power_schemes,
    register_topology,
    schedulers,
    topologies,
    trees,
)
from repro.errors import ConfigurationError


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_and_get(self):
        r = Registry("widget")
        r.register("a", 1)
        assert r.get("a") == 1
        assert r.names() == ("a",)
        assert "a" in r and len(r) == 1

    def test_decorator_form(self):
        r = Registry("widget")

        @r.register("fn")
        def fn():
            return 42

        assert r.get("fn")() == 42
        assert fn() == 42  # the decorator returns its target

    def test_unknown_name_lists_choices(self):
        r = Registry("widget")
        r.register("a", 1)
        r.register("b", 2)
        with pytest.raises(ConfigurationError, match="unknown widget 'c'.*a, b"):
            r.get("c")

    def test_duplicate_rejected_unless_overwrite(self):
        r = Registry("widget")
        r.register("a", 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            r.register("a", 2)
        r.register("a", 2, overwrite=True)
        assert r.get("a") == 2

    def test_bad_names_rejected(self):
        r = Registry("widget")
        with pytest.raises(ConfigurationError):
            r.register("", 1)
        with pytest.raises(ConfigurationError):
            r.register(None, 1)

    def test_names_preserve_registration_order(self):
        r = Registry("widget")
        for name in ("z", "a", "m"):
            r.register(name, name)
        assert r.names() == ("z", "a", "m")

    def test_unregister(self):
        r = Registry("widget")
        r.register("a", 1)
        assert r.unregister("a") == 1
        assert "a" not in r


# ----------------------------------------------------------------------
# The five populated registries
# ----------------------------------------------------------------------
class TestBuiltinRegistries:
    def test_expected_names(self):
        assert topologies.names() == ("square", "disk", "grid", "clusters", "exponential")
        assert trees.names() == ("mst", "matching", "knn-mst")
        assert power_schemes.names() == ("global", "oblivious", "uniform", "linear", "mean")
        assert schedulers.names() == (
            "certified",
            "incremental-certified",
            "greedy-sinr",
            "protocol-model",
            "tdma",
        )
        assert measurements.names() == ("schedule", "g1")

    @pytest.mark.parametrize(
        "registry", [topologies, trees, power_schemes, schedulers, measurements],
        ids=["topologies", "trees", "power_schemes", "schedulers", "measurements"],
    )
    def test_every_name_resolves(self, registry):
        for name in registry.names():
            assert registry.get(name) is not None

    def test_topology_specs_build_exact_n(self):
        for name in topologies.names():
            spec = topologies.get(name)
            points = spec.build(13, rng=5)
            assert len(points) == 13, name

    def test_seed_metadata(self):
        assert topologies.get("square").uses_seed
        assert not topologies.get("grid").uses_seed
        assert not topologies.get("exponential").uses_seed

    def test_power_schemes_pin_modes(self):
        from repro.scheduling.builder import PowerMode

        assert power_schemes.get("global").mode is PowerMode.GLOBAL
        assert power_schemes.get("mean").mode is PowerMode.OBLIVIOUS
        assert power_schemes.get("mean").tau == 0.5
        assert power_schemes.get("uniform").fixed_tau() == 0.0
        assert power_schemes.get("linear").fixed_tau() == 1.0
        assert power_schemes.get("global").fixed_tau() == 0.5

    def test_certified_scheduler_declares_constants(self):
        assert schedulers.get("certified").constants == {"gamma", "delta", "tau"}
        assert schedulers.get("tdma").constants == frozenset()

    def test_user_registered_topology_reaches_make_deployment(self):
        from repro.geometry.generators import line_points, make_deployment

        @register_topology("unit-chain-test", uses_seed=False)
        def _unit_chain(n, *, rng=None):
            return line_points(range(n))

        try:
            points = make_deployment("unit-chain-test", 5)
            assert len(points) == 5
            cfg = PipelineConfig(topology="unit-chain-test", n=5)
            assert Pipeline(cfg).run().num_slots >= 1
        finally:
            topologies.unregister("unit-chain-test")


# ----------------------------------------------------------------------
# PipelineConfig
# ----------------------------------------------------------------------
class TestPipelineConfig:
    def test_defaults_validate(self):
        cfg = PipelineConfig()
        assert cfg.topology == "square" and cfg.tree == "mst"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("topology", "hexagon"),
            ("tree", "steiner"),
            ("power", "psychic"),
            ("scheduler", "oracle"),
        ],
    )
    def test_unknown_component_rejected_eagerly(self, field, value):
        with pytest.raises(ConfigurationError, match="available"):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,key,valid",
        [
            ("topology_params", "bogus", "available: side"),
            ("topology_params", "rng", "available: side"),  # the pipeline passes rng
            ("tree_params", "bogus", "available: method"),
            ("scheduler_params", "bogus", "available: gamma, delta, tau"),
        ],
    )
    def test_unknown_component_param_rejected_eagerly(self, field, key, valid):
        with pytest.raises(ConfigurationError, match=f"unknown {field} .*'{key}'.*{valid}"):
            PipelineConfig(**{field: {key: 1}})

    def test_bad_numbers_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(n=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(alpha=1.5)
        with pytest.raises(ConfigurationError):
            PipelineConfig(num_frames=-1)
        with pytest.raises(ConfigurationError):
            PipelineConfig(gamma=-1.0)

    def test_constant_ranges_mirror_components(self):
        # The builder requires gamma > 0 and ObliviousPower tau in
        # [0, 1]; the config must fail eagerly, not mid-pipeline.
        with pytest.raises(ConfigurationError, match="gamma"):
            PipelineConfig(gamma=0.0)
        with pytest.raises(ConfigurationError, match="tau"):
            PipelineConfig(tau=1.5)
        with pytest.raises(ConfigurationError, match="delta"):
            PipelineConfig(delta=-0.1)
        assert PipelineConfig(tau=0.0).tau == 0.0  # uniform power is valid

    @pytest.mark.parametrize("field", ["gamma", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_constants_rejected(self, field, value):
        """A NaN gamma fails ``<= 0`` and so used to pass, making every
        conflict test false; an infinite delta passed ``< 0``."""
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("field", ["gamma", "delta", "alpha", "beta"])
    @pytest.mark.parametrize("value", ["1", False])
    def test_non_numeric_constants_rejected(self, field, value):
        """A string gamma used to raise a bare TypeError from ``<= 0``;
        a string alpha or a bool anywhere was coerced to a number."""
        with pytest.raises(ConfigurationError, match=f"{field} must be a real number"):
            PipelineConfig(**{field: value})

    def test_round_trips_through_json(self):
        cfg = PipelineConfig(
            topology="clusters", n=30, tree="knn-mst", power="mean",
            gamma=2.0, tree_params={"k": 5},
        )
        clone = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown PipelineConfig"):
            PipelineConfig.from_dict({"flavor": "mint"})

    def test_replace_revalidates(self):
        cfg = PipelineConfig()
        assert cfg.replace(tree="matching").tree == "matching"
        with pytest.raises(ConfigurationError):
            cfg.replace(tree="steiner")

    def test_power_mode_enum_accepted(self):
        from repro.scheduling.builder import PowerMode

        assert PipelineConfig(power=PowerMode.OBLIVIOUS).power == "oblivious"
        assert PipelineConfig(power="mean").power_mode is PowerMode.OBLIVIOUS


# ----------------------------------------------------------------------
# Pipeline runs
# ----------------------------------------------------------------------
class TestPipeline:
    def test_run_produces_stamped_artifact(self):
        cfg = PipelineConfig(topology="grid", n=9, num_frames=3)
        artifact = Pipeline(cfg).run()
        assert isinstance(artifact, RunArtifact)
        assert artifact.num_slots >= 1
        assert artifact.report is not None
        assert artifact.simulation is not None and artifact.simulation.stable
        prov = artifact.provenance
        assert prov["components"] == {
            "topology": "grid", "tree": "mst", "power": "global",
            "power_mode": "global", "scheduler": "certified",
            "backend": "dense-numpy",
        }
        assert PipelineConfig.from_dict(prov["config"]) == cfg

    def test_provenance_is_json_serialisable(self):
        artifact = Pipeline(PipelineConfig(topology="grid", n=6)).run()
        assert json.loads(json.dumps(artifact.provenance)) == artifact.provenance

    def test_explicit_points_skip_deployment(self):
        from repro import uniform_square

        points = uniform_square(12, rng=3)
        artifact = Pipeline(PipelineConfig(n=12)).run(points)
        assert artifact.points is points
        assert artifact.provenance["components"]["topology"] is None

    def test_baseline_scheduler_has_no_report(self):
        cfg = PipelineConfig(topology="grid", n=8, scheduler="tdma")
        artifact = Pipeline(cfg).run()
        assert artifact.report is None
        assert artifact.num_slots == 7  # one link per slot
        assert "slots=7" in artifact.summary()

    def test_constants_reach_certified_builder(self):
        cfg = PipelineConfig(topology="grid", n=9, power="oblivious", tau=0.4, gamma=2.0)
        schedule, report = Pipeline(cfg).build_schedule(
            Pipeline(cfg).build_tree(Pipeline(cfg).deploy()).links()
        )
        assert report is not None and schedule.num_slots >= 1

    def test_same_config_is_reproducible(self):
        cfg = PipelineConfig(topology="square", n=15, seed=9)
        a, b = Pipeline(cfg).run(), Pipeline(cfg).run()
        assert np.allclose(a.points.coords, b.points.coords)
        assert a.num_slots == b.num_slots

    def test_measurement_context_lazy_schedule(self):
        cfg = PipelineConfig(topology="grid", n=9)
        pipe = Pipeline(cfg)
        points = pipe.deploy()
        ctx = MeasurementContext(pipe, points, pipe.build_tree(points))
        assert ctx._built is None
        schedule, report = ctx.schedule()
        assert ctx.schedule()[0] is schedule  # cached


# ----------------------------------------------------------------------
# Public-surface lock and back-compat
# ----------------------------------------------------------------------
class TestPublicSurface:
    def test_all_names_importable(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    def test_api_exports_present(self):
        for name in ("Pipeline", "PipelineConfig", "Registry", "RunArtifact"):
            assert name in repro.__all__

    def test_api_package_all_importable(self):
        import repro.api as api

        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_pre_redesign_imports_still_work(self):
        # The pre-registry public surface, verbatim.
        from repro import (  # noqa: F401
            AggregationTree,
            PowerMode,
            ScheduleBuilder,
            SweepSpec,
            make_deployment,
            uniform_square,
        )
        from repro.geometry.generators import TOPOLOGIES

        assert TOPOLOGIES == ("square", "disk", "grid", "clusters", "exponential")

    def test_simulation_result_type_exported_and_used(self):
        from repro.api import Pipeline, PipelineConfig, RunArtifact, SimulationResult
        import typing

        artifact = Pipeline(
            PipelineConfig(topology="grid", n=9, num_frames=2)
        ).run()
        assert isinstance(artifact.simulation, SimulationResult)
        hints = typing.get_type_hints(RunArtifact)
        assert hints["simulation"] == typing.Optional[SimulationResult]

    def test_protocol_accepts_mean_scheme(self):
        from repro import Pipeline, PipelineConfig, PowerMode, uniform_square

        config = PipelineConfig(n=10, power="mean")
        assert config.power_mode is PowerMode.OBLIVIOUS
        assert Pipeline(config).run(uniform_square(10, rng=0)).num_slots >= 1

    def test_make_deployment_matches_direct_builders(self):
        from repro import make_deployment, uniform_square

        a = make_deployment("square", 10, rng=4)
        b = uniform_square(10, rng=4)
        assert np.allclose(a.coords, b.coords)

    def test_make_deployment_unknown_topology(self):
        from repro import make_deployment

        with pytest.raises(ConfigurationError, match="unknown topology"):
            make_deployment("hexagon", 10)
