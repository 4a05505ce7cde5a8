"""Tests for the frame-level convergecast simulator."""

import numpy as np
import pytest

from repro.aggregation.functions import MAX, SUM
from repro.aggregation.simulator import AggregationSimulator
from repro.errors import SimulationError
from repro.geometry.generators import uniform_square
from repro.geometry.point import PointSet
from repro.scheduling.builder import ScheduleBuilder
from repro.scheduling.schedule import Schedule, Slot
from repro.spanning.tree import AggregationTree


@pytest.fixture
def small_setup(model):
    points = uniform_square(20, rng=5)
    tree = AggregationTree.mst(points, sink=0)
    schedule = ScheduleBuilder(model, "global").build_for_tree(tree)
    return tree, schedule


class TestStableOperation:
    def test_all_frames_complete(self, small_setup):
        tree, schedule = small_setup
        result = AggregationSimulator(tree, schedule).run(10)
        assert result.stable
        assert result.frames_completed == 10

    def test_values_correct_sum(self, small_setup):
        tree, schedule = small_setup
        result = AggregationSimulator(tree, schedule, SUM).run(8, rng=1)
        assert result.values_correct

    def test_values_correct_max(self, small_setup):
        tree, schedule = small_setup
        result = AggregationSimulator(tree, schedule, MAX).run(8, rng=2)
        assert result.values_correct

    def test_latency_bounded_by_depth_times_period(self, small_setup):
        tree, schedule = small_setup
        result = AggregationSimulator(tree, schedule).run(10)
        bound = (tree.height() + 2) * schedule.num_slots
        assert result.max_latency <= bound

    def test_backlog_bounded_at_capacity(self, small_setup):
        tree, schedule = small_setup
        short = AggregationSimulator(tree, schedule).run(5)
        long = AggregationSimulator(tree, schedule).run(25)
        # Stable: backlog does not grow with the run length.
        assert long.max_backlog <= short.max_backlog * 2 + len(tree.points)

    def test_throughput_matches_rate(self, small_setup):
        tree, schedule = small_setup
        result = AggregationSimulator(tree, schedule).run(30)
        # Steady state: one frame per period (plus drain tail).
        assert result.throughput >= 0.7 / schedule.num_slots

    def test_explicit_readings(self, small_setup):
        tree, schedule = small_setup
        n = len(tree.points)
        readings = np.arange(2 * n, dtype=float).reshape(2, n)
        result = AggregationSimulator(tree, schedule, SUM).run(2, readings=readings)
        assert result.values_correct


class TestOverload:
    def test_injection_faster_than_capacity_backlogs(self, small_setup):
        tree, schedule = small_setup
        if schedule.num_slots < 2:
            pytest.skip("schedule too short to overload")
        sim = AggregationSimulator(tree, schedule)
        at_rate = sim.run(20)
        overloaded = sim.run(
            20,
            injection_period=1,
            max_slots=20 * schedule.num_slots,
        )
        assert overloaded.max_backlog > at_rate.max_backlog
        assert overloaded.final_backlog > 0  # frames left in flight

    def test_slower_injection_also_stable(self, small_setup):
        tree, schedule = small_setup
        result = AggregationSimulator(tree, schedule).run(
            6, injection_period=2 * schedule.num_slots
        )
        assert result.stable

    def test_truncated_run_is_not_stable(self, model):
        # Regression: a tiny max_slots stops the run after the first
        # injection; the one injected frame completes, but the run must
        # not report stability — it never injected the other frames.
        points = PointSet([0.0, 1.0])
        tree = AggregationTree.mst(points, sink=0)
        schedule = ScheduleBuilder(model, "global").build_for_tree(tree)
        result = AggregationSimulator(tree, schedule).run(
            5, max_slots=schedule.num_slots, rng=0
        )
        assert result.frames_injected < 5
        assert result.frames_completed == result.frames_injected
        assert result.truncated
        assert not result.stable

    def test_frames_requested_recorded(self, small_setup):
        tree, schedule = small_setup
        result = AggregationSimulator(tree, schedule).run(7)
        assert result.frames_requested == 7
        assert not result.truncated and result.stable


class TestValidation:
    def test_rejects_zero_frames(self, small_setup):
        tree, schedule = small_setup
        with pytest.raises(SimulationError):
            AggregationSimulator(tree, schedule).run(0)

    def test_rejects_bad_injection_period(self, small_setup):
        tree, schedule = small_setup
        with pytest.raises(SimulationError):
            AggregationSimulator(tree, schedule).run(1, injection_period=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_frames": 5, "max_slots": -3},
            {"num_frames": 5, "max_slots": 0},
            {"num_frames": 5, "injection_period": -1},
            {"num_frames": -2},
            {"num_frames": 5, "injection_period": 2.5},
            {"num_frames": 5, "max_slots": 7.5},
            {"num_frames": 2.0},
            {"num_frames": "3"},
            {"num_frames": True},
        ],
        ids=repr,
    )
    def test_rejects_non_positive_integer_arguments(self, small_setup, kwargs):
        tree, schedule = small_setup
        with pytest.raises(SimulationError, match="must be an integer >= 1"):
            AggregationSimulator(tree, schedule).run(**kwargs)

    def test_accepts_numpy_integers(self, small_setup):
        tree, schedule = small_setup
        sim = AggregationSimulator(tree, schedule)
        period = schedule.num_slots
        plain = sim.run(4, injection_period=period, max_slots=20 * period, rng=3)
        numpy_ints = sim.run(
            np.int64(4),
            injection_period=np.int32(period),
            max_slots=np.int64(20 * period),
            rng=3,
        )
        assert numpy_ints == plain
        assert type(numpy_ints.slots_elapsed) is int

    def test_rejects_schedule_that_is_not_a_partition(self, model):
        points = PointSet([0.0, 1.0, 3.0])
        tree = AggregationTree.mst(points, sink=0)
        links = tree.links()
        twice = Schedule(
            links, [Slot((0, 1), (1.0, 1.0)), Slot((1,), (1.0,))], model, validate=False
        )
        missing = Schedule(links, [Slot((0,), (1.0,))], model, validate=False)
        for schedule in (twice, missing):
            with pytest.raises(SimulationError, match="partition"):
                AggregationSimulator(tree, schedule)

    def test_rejects_bad_readings_shape(self, small_setup):
        tree, schedule = small_setup
        with pytest.raises(SimulationError):
            AggregationSimulator(tree, schedule).run(2, readings=np.zeros((1, 3)))

    def test_rejects_non_numeric_readings(self, small_setup):
        tree, schedule = small_setup
        n = len(tree.points)
        for readings in ([["a"] * n], [[object()] * n]):
            with pytest.raises(SimulationError, match="numbers"):
                AggregationSimulator(tree, schedule).run(1, readings=readings)

    @pytest.mark.parametrize("frames", [1, 8])
    def test_rejects_nan_readings(self, small_setup, frames):
        tree, schedule = small_setup
        readings = np.ones((frames, len(tree.points)))
        readings[-1, 3] = np.nan
        with pytest.raises(SimulationError, match="NaN"):
            AggregationSimulator(tree, schedule).run(frames, readings=readings)

    @pytest.mark.parametrize("frames", [1, 8])
    def test_accepts_infinite_readings(self, small_setup, frames):
        tree, schedule = small_setup
        readings = np.ones((frames, len(tree.points)))
        readings[:, 3] = np.inf
        for function in (SUM, MAX):
            result = AggregationSimulator(tree, schedule, function).run(frames, readings=readings)
            assert result.stable and result.values_correct

    def test_rejects_mismatched_schedule(self, model, small_setup):
        tree, _schedule = small_setup
        other = AggregationTree.mst(uniform_square(8, rng=9))
        other_schedule = ScheduleBuilder(model, "global").build_for_tree(other)
        with pytest.raises(SimulationError):
            AggregationSimulator(tree, other_schedule)


class TestTinyTopologies:
    def test_two_node_line(self, model):
        points = PointSet([0.0, 1.0])
        tree = AggregationTree.mst(points, sink=0)
        schedule = ScheduleBuilder(model, "global").build_for_tree(tree)
        result = AggregationSimulator(tree, schedule).run(5, rng=0)
        assert result.stable and result.values_correct
        assert result.max_latency <= schedule.num_slots + 1

    def test_star_topology(self, model):
        # Hub at origin with 5 leaves: every link shares the hub, so the
        # schedule is fully sequential.
        import numpy as np

        angles = np.linspace(0, 2 * np.pi, 6)[:-1]
        coords = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
        points = PointSet(coords)
        tree = AggregationTree.mst(points, sink=0)
        schedule = ScheduleBuilder(model, "global").build_for_tree(tree)
        assert schedule.num_slots == 5  # half-duplex hub
        result = AggregationSimulator(tree, schedule).run(4, rng=1)
        assert result.stable and result.values_correct
