"""Tests for the pipeline over an explicit deployment, its prediction
and the median driver."""

import numpy as np
import pytest

from repro.aggregation.functions import SUM
from repro.aggregation.median import median_via_counting
from repro.api import Pipeline, PipelineConfig
from repro.core.capacity import compare_power_modes
from repro.core.theory import (
    predicted_slots,
    predicted_slots_global,
    predicted_slots_oblivious,
)
from repro.errors import ConfigurationError, SimulationError
from repro.geometry.generators import uniform_square
from repro.scheduling.builder import PowerMode


def run_pipeline(points, model, *, function=SUM, **fields):
    """The pipeline over ``points`` under ``model``; ``fields`` are
    :class:`PipelineConfig` fields."""
    config = PipelineConfig(n=len(points), **fields)
    return Pipeline(config, model=model).run(points, function=function)


class TestExplicitPoints:
    def test_without_simulation(self, model, square_points):
        result = run_pipeline(square_points, model)
        assert result.simulation is None
        assert result.num_slots >= 1
        assert result.rate == pytest.approx(1.0 / result.num_slots)

    def test_with_simulation(self, model, square_points):
        result = run_pipeline(square_points, model, num_frames=5)
        assert result.simulation is not None
        assert result.simulation.stable

    def test_summary_contains_key_facts(self, model, square_points):
        result = run_pipeline(square_points, model, num_frames=3)
        text = result.summary()
        assert "slots=" in text and "simulated:" in text

    def test_custom_sink(self, model, square_points):
        result = run_pipeline(square_points, model, sink=7)
        assert result.tree.sink == 7


class TestPrediction:
    def test_build_returns_prediction(self, model, square_points):
        result = run_pipeline(square_points, model, power="global")
        assert result.predicted_slots >= 1.0
        assert result.slots_vs_prediction == pytest.approx(
            result.num_slots / result.predicted_slots
        )

    def test_mode_forwarded(self, model, square_points):
        result = run_pipeline(square_points, model, power="oblivious", tau=0.5)
        assert result.report.mode is PowerMode.OBLIVIOUS

    def test_summary(self, model, square_points):
        result = run_pipeline(square_points, model, power="global")
        assert "predicted" in result.summary()


class TestTheory:
    def test_global_prediction_is_log_star(self):
        assert predicted_slots_global(65536.0) == 4.0
        assert predicted_slots_global(1.0) == 1.0  # clamped

    def test_oblivious_prediction_is_loglog(self):
        assert predicted_slots_oblivious(256.0) == pytest.approx(3.0)

    def test_dispatch(self):
        assert predicted_slots("global", 16.0, 100) == predicted_slots_global(16.0)
        assert predicted_slots("oblivious", 16.0, 100) == predicted_slots_oblivious(16.0)
        assert predicted_slots("uniform", 16.0, 1024) == pytest.approx(10.0)


class TestCompare:
    def test_all_strategies_present(self, model, square_points):
        comparison = compare_power_modes(square_points, model=model)
        names = {o.strategy for o in comparison.outcomes}
        assert names == {"global", "oblivious", "uniform-greedy", "linear-greedy", "tdma"}

    def test_tdma_is_n_minus_one(self, model, square_points):
        comparison = compare_power_modes(square_points, model=model)
        assert comparison.by_strategy()["tdma"].slots == len(square_points) - 1

    def test_table_renders(self, model, square_points):
        table = compare_power_modes(square_points, model=model).table()
        assert "strategy" in table and "global" in table

    def test_skip_baselines(self, model, square_points):
        comparison = compare_power_modes(
            square_points, model=model, include_baselines=False
        )
        assert len(comparison.outcomes) == 2


class TestMedian:
    def test_with_direct_runner(self):
        readings = [5.0, 1.0, 9.0, 3.0, 7.0]
        values = np.asarray(readings)
        result = median_via_counting(
            readings, runner=lambda t: int((values > t).sum())
        )
        assert result.median == pytest.approx(5.0)

    def test_through_simulator(self, model, square_points):
        conv = run_pipeline(square_points, model)
        rng = np.random.default_rng(3)
        readings = rng.uniform(0, 50, size=len(square_points))
        result = median_via_counting(
            readings, tree=conv.tree, schedule=conv.schedule, tolerance=1e-3
        )
        lower_median = float(np.sort(readings)[(len(readings) - 1) // 2])
        assert result.median == pytest.approx(lower_median)
        assert result.slots_used > 0
        assert result.probes >= 2

    def test_even_count_gives_lower_median(self):
        readings = [1.0, 2.0, 3.0, 4.0]
        values = np.asarray(readings)
        result = median_via_counting(
            readings, runner=lambda t: int((values > t).sum())
        )
        assert result.median in (2.0, 3.0)  # a reading near the median cut

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            median_via_counting([], runner=lambda t: 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            {"tolerance": -1.0},
            {"max_probes": 0},
            {"max_probes": -3},
            {"max_probes": 2.5},
            {"max_probes": True},
        ],
        ids=repr,
    )
    def test_bad_search_parameters_rejected(self, kwargs):
        """Each of these used to stop after the first probe (or never
        converge) and report the maximum, 5.0, as the median of 1..5."""
        values = np.arange(1.0, 6.0)
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            median_via_counting(
                values, runner=lambda t: int((values > t).sum()), **kwargs
            )

    def test_zero_tolerance_still_finds_the_median(self):
        values = np.arange(1.0, 6.0)
        result = median_via_counting(
            values, runner=lambda t: int((values > t).sum()), tolerance=0.0
        )
        assert result.median == 3.0

    @pytest.mark.parametrize(
        "readings", [[3.0, float("nan"), 1.0, 2.0], [1.0, "x"], [1.0, None]], ids=repr
    )
    def test_bad_readings_rejected(self, readings):
        with pytest.raises(SimulationError):
            median_via_counting(readings, runner=lambda t: 0)

    @pytest.mark.parametrize(
        "readings", [[1.0, 2.0, float("inf")], [-float("inf"), 1.0, 2.0]], ids=repr
    )
    def test_infinite_readings_rejected(self, readings):
        # The binary search runs over [min, max]; an infinite end never
        # narrows, so these returned inf and 2.0 after 128 probes.
        values = np.asarray(readings)
        with pytest.raises(SimulationError, match="finite"):
            median_via_counting(readings, runner=lambda t: int((values > t).sum()))

    def test_requires_runner_or_pair(self):
        with pytest.raises(SimulationError):
            median_via_counting([1.0, 2.0])
