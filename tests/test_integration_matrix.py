"""Cross-module integration matrix: every power mode x topology x
aggregation function, end to end, plus failure-injection cases."""

import numpy as np
import pytest

from repro.aggregation.functions import COUNT, MAX, MEAN, MIN, SUM
from repro.api import Pipeline, PipelineConfig
from repro.errors import ReproError
from repro.geometry.generators import (
    cluster_points,
    exponential_line,
    grid_points,
    uniform_disk,
    uniform_square,
)
from repro.scheduling.builder import PowerMode
from repro.sinr.model import SINRModel

TOPOLOGIES = {
    "square": lambda: uniform_square(24, rng=211),
    "disk": lambda: uniform_disk(24, rng=211),
    "grid": lambda: grid_points(5, 5),
    "clusters": lambda: cluster_points(4, 6, cluster_std=0.01, rng=211),
    "chain": lambda: exponential_line(10),
}


def run_pipeline(points, model, *, function=SUM, **fields):
    """The pipeline over ``points`` under ``model``; ``fields`` are
    :class:`PipelineConfig` fields."""
    config = PipelineConfig(n=len(points), **fields)
    return Pipeline(config, model=model).run(points, function=function)


class TestModeTopologyMatrix:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("mode", ["global", "oblivious"])
    def test_end_to_end(self, model, topology, mode):
        points = TOPOLOGIES[topology]()
        result = run_pipeline(points, model, power=mode, num_frames=3, seed=1)
        assert result.simulation.stable
        assert result.simulation.values_correct
        assert result.schedule.min_slack() >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "function", [SUM, MAX, MIN, COUNT, MEAN], ids=lambda f: f.name
    )
    def test_every_aggregate_end_to_end(self, model, function):
        points = uniform_square(18, rng=223)
        result = run_pipeline(
            points, model, power="global", function=function, num_frames=4, seed=2
        )
        assert result.simulation.values_correct

    def test_noisy_model_end_to_end(self):
        model = SINRModel(alpha=3.0, beta=1.0, noise=1e-4, epsilon=0.5)
        points = uniform_square(20, rng=227)
        result = run_pipeline(points, model, power="oblivious", num_frames=3)
        assert result.simulation.stable

    def test_strict_beta_end_to_end(self):
        model = SINRModel(alpha=3.0, beta=4.0)
        points = uniform_square(20, rng=229)
        result = run_pipeline(points, model, power="global", num_frames=3)
        assert result.simulation.stable
        # Stricter beta cannot shorten the schedule.
        loose = run_pipeline(points, SINRModel(alpha=3.0), power="global")
        assert result.num_slots >= loose.num_slots

    def test_alpha_sweep(self):
        points = uniform_square(20, rng=233)
        for alpha in (2.5, 3.0, 4.0, 6.0):
            model = SINRModel(alpha=alpha, beta=1.0)
            result = run_pipeline(points, model, power="global")
            assert 1 <= result.num_slots <= len(points) - 1


class TestFailureInjection:
    def test_every_error_is_a_repro_error(self):
        """The exception hierarchy contract: library failures derive
        from ReproError so callers can catch one type."""
        from repro.errors import (
            ConfigurationError,
            ConstructionError,
            GeometryError,
            InfeasibleError,
            LinkError,
            ScheduleError,
            SimulationError,
        )

        for exc in (
            ConfigurationError,
            ConstructionError,
            GeometryError,
            InfeasibleError,
            LinkError,
            ScheduleError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)

    def test_sink_out_of_range(self, model):
        with pytest.raises(ReproError):
            run_pipeline(uniform_square(5, rng=1), model, sink=99)

    def test_single_node_deployment(self, model):
        from repro.geometry.point import PointSet
        from repro.spanning.tree import AggregationTree

        tree = AggregationTree.mst(PointSet([[0.0, 0.0]]))
        assert len(tree.edges) == 0
        assert tree.height() == 0

    def test_corrupted_schedule_rejected(self, model, square_links):
        """Tampering with a slot's powers must fail validation."""
        from repro.scheduling.builder import ScheduleBuilder
        from repro.scheduling.schedule import Schedule, Slot

        schedule = ScheduleBuilder(model, "global").build(square_links)
        slots = list(schedule.slots)
        big = max(range(len(slots)), key=lambda k: len(slots[k]))
        if len(slots[big]) < 2:
            pytest.skip("no multi-link slot to corrupt")
        # Starve one link's power by 10^6: its SINR collapses.
        bad = Slot(
            slots[big].link_indices,
            tuple(
                p * (1e-6 if j == 0 else 1.0)
                for j, p in enumerate(slots[big].powers)
            ),
        )
        slots[big] = bad
        with pytest.raises(ReproError):
            Schedule(square_links, slots, model)

    def test_duplicate_points_rejected_early(self, model):
        from repro.errors import GeometryError
        from repro.geometry.point import PointSet

        with pytest.raises(GeometryError):
            PointSet([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])


class TestDeterminism:
    def test_full_pipeline_deterministic(self, model):
        a = run_pipeline(uniform_square(30, rng=241), model, num_frames=3, seed=5)
        b = run_pipeline(uniform_square(30, rng=241), model, num_frames=3, seed=5)
        assert a.num_slots == b.num_slots
        assert a.schedule.colors().tolist() == b.schedule.colors().tolist()
        assert a.simulation.latencies == b.simulation.latencies

    def test_different_seeds_differ(self, model):
        a = run_pipeline(uniform_square(30, rng=1), model)
        b = run_pipeline(uniform_square(30, rng=2), model)
        assert not np.array_equal(a.tree.points.coords, b.tree.points.coords)
