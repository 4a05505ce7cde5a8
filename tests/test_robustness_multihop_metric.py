"""Tests for fading robustness, the multi-hop tier, and metric tools."""

import numpy as np
import pytest

from repro.aggregation.multihop import build_two_tier_aggregation, grid_cells
from repro.errors import ConfigurationError, GeometryError, LinkError
from repro.geometry.generators import cluster_points, uniform_square
from repro.geometry.metric import (
    doubling_constant,
    doubling_dimension,
    shadowed_distance_matrix,
)
from repro.geometry.point import PointSet
from repro.scheduling.builder import ScheduleBuilder
from repro.sinr.model import SINRModel
from repro.sinr.robustness import FadingChannel, measure_retransmissions
from repro.spanning.tree import AggregationTree


@pytest.fixture
def small_schedule(model):
    tree = AggregationTree.mst(uniform_square(15, rng=83))
    return ScheduleBuilder(model, "global").build_for_tree(tree)


class TestFadingChannel:
    def test_no_fading_no_noise_always_succeeds(self, model, small_schedule):
        channel = FadingChannel(rayleigh=False, noise_sigma=0.0)
        report = measure_retransmissions(small_schedule, channel, periods=5, rng=0)
        assert report.success_rate == 1.0
        assert report.effective_slowdown == 1.0

    def test_rayleigh_costs_constant_factor(self, model, small_schedule):
        """The paper's claim (via [4]): fading degrades throughput by
        only a constant factor under retransmissions."""
        channel = FadingChannel(rayleigh=True)
        report = measure_retransmissions(small_schedule, channel, periods=30, rng=1)
        assert 0.05 < report.success_rate <= 1.0
        assert report.effective_slowdown <= 12.0

    def test_slot_success_shape(self, model, small_schedule):
        channel = FadingChannel(rayleigh=True)
        gen = np.random.default_rng(2)
        slot = small_schedule.slots[0]
        ok = channel.slot_success(
            small_schedule.links,
            np.asarray(slot.powers),
            slot.link_indices,
            model,
            gen,
        )
        assert ok.shape == (len(slot),)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigurationError):
            FadingChannel(noise_sigma=-1.0)

    @pytest.mark.parametrize(
        "sigma,message",
        [(float("nan"), "finite"), (float("inf"), "finite"), ("x", "real number")],
        ids=["nan", "inf", "string"],
    )
    def test_sigma_is_a_finite_real(self, sigma, message):
        with pytest.raises(ConfigurationError, match=f"noise_sigma must be .*{message}"):
            FadingChannel(noise_sigma=sigma)

    @pytest.mark.parametrize(
        "active,message",
        [
            ([1.7], "link index 1.7 is not an integer"),
            ([True], "link index True is not an integer"),
            ([3, 3], "link index 3 is repeated"),
            ([-1], "link index -1 is out of range"),
            ([14], "link index 14 is out of range"),
            ([], "at least one link"),
        ],
        ids=["fraction", "bool", "repeat", "negative", "past-the-end", "empty"],
    )
    def test_slot_indices_are_distinct_links(self, model, small_schedule, active, message):
        """Before any cast: ``[1.7]`` and ``[True]`` meant link 1 and
        ``[3, 3]`` let link 3 interfere with itself."""
        links = small_schedule.links
        with pytest.raises(LinkError, match=message):
            FadingChannel(rayleigh=False).slot_success(
                links, np.ones(len(links)), active, model, np.random.default_rng(0)
            )

    def test_deterministic_given_seed(self, small_schedule):
        channel = FadingChannel(rayleigh=True)
        a = measure_retransmissions(small_schedule, channel, periods=10, rng=5)
        b = measure_retransmissions(small_schedule, channel, periods=10, rng=5)
        assert a.periods_used == b.periods_used and a.successes == b.successes


class TestMultihop:
    def test_grid_cells_partition(self, square_points):
        cells = grid_cells(square_points, 0.25)
        members = sorted(i for cell in cells.values() for i in cell)
        assert members == list(range(len(square_points)))

    def test_rejects_bad_cell_size(self, square_points):
        with pytest.raises(GeometryError):
            grid_cells(square_points, 0.0)

    def test_two_tier_plan_structure(self, model):
        points = cluster_points(6, 6, cluster_std=0.01, side=3.0, rng=89)
        plan = build_two_tier_aggregation(points, 1.0, model=model)
        assert plan.total_period == plan.local_period + plan.backbone_slots
        assert 0 < plan.rate <= 1.0
        assert len(plan.leaders) >= 1

    def test_sink_leads_its_cell(self, model):
        points = uniform_square(30, rng=97)
        plan = build_two_tier_aggregation(points, 0.3, sink=4, model=model)
        assert 4 in plan.leaders

    def test_backbone_links_near_cell_scale(self, model):
        """Backbone links connect occupied neighbouring cells: their
        lengths are Theta(cell_size) on dense deployments — the
        equal-length regime the paper reduces multi-hop to."""
        points = uniform_square(200, rng=101)
        cell = 0.25
        plan = build_two_tier_aggregation(points, cell, model=model)
        lengths = plan.backbone_tree.links().lengths
        assert lengths.max() <= 4 * cell

    def test_single_cell_degenerates(self, model):
        points = uniform_square(10, rng=103)
        plan = build_two_tier_aggregation(points, 100.0, model=model)
        assert plan.backbone_slots == 0
        assert plan.total_period == plan.local_period

    def test_summary(self, model):
        points = uniform_square(20, rng=107)
        plan = build_two_tier_aggregation(points, 0.5, model=model)
        assert "two-tier plan" in plan.summary()


class TestDoublingMetric:
    def test_planar_pointsets_small_constant(self):
        points = uniform_square(60, rng=109)
        assert doubling_constant(points, samples=16, rng=0) <= 24

    def test_dimension_log_of_constant(self):
        points = uniform_square(40, rng=113)
        c = doubling_constant(points, samples=8, rng=1)
        d = doubling_dimension(points, samples=8, rng=1)
        assert d == pytest.approx(np.log2(c))

    def test_single_point(self):
        assert doubling_constant(PointSet([[0.0, 0.0]])) == 1

    def test_shadowed_matrix_properties(self, square_points):
        dm = shadowed_distance_matrix(square_points, 0.3, rng=2)
        assert np.allclose(dm, dm.T)
        assert np.all(np.diag(dm) == 0)
        assert np.all(dm[np.triu_indices_from(dm, 1)] > 0)

    def test_zero_sigma_identity(self, square_points):
        dm = shadowed_distance_matrix(square_points, 0.0, rng=3)
        assert np.allclose(dm, square_points.distance_matrix())

    def test_rejects_negative_sigma(self, square_points):
        with pytest.raises(GeometryError):
            shadowed_distance_matrix(square_points, -0.1)
