"""Tests for the ScheduleBuilder pipeline and the repair pass."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.generators import exponential_line, uniform_square
from repro.core.theory import predicted_slots
from repro.scheduling.builder import PowerMode, ScheduleBuilder
from repro.scheduling.distributed import DistributedSchedulingSimulator
from repro.scheduling.incremental import IncrementalScheduler
from repro.scheduling.repair import split_into_feasible_slots
from repro.sinr.feasibility import is_feasible_with_power
from repro.sinr.powercontrol import is_feasible_some_power
from repro.spanning.tree import AggregationTree


class TestRepair:
    def test_already_feasible_single_slot(self, model, two_parallel_links):
        slots = split_into_feasible_slots(two_parallel_links, [0, 1], model)
        assert slots == [[0, 1]]

    def test_infeasible_pair_split(self, model, two_close_links):
        slots = split_into_feasible_slots(two_close_links, [0, 1], model)
        assert len(slots) == 2
        assert sorted(i for s in slots for i in s) == [0, 1]

    def test_empty_class(self, model, two_parallel_links):
        assert split_into_feasible_slots(two_parallel_links, [], model) == []

    def test_all_slots_satisfy_predicate(self, model, square_links):
        slots = split_into_feasible_slots(
            square_links, list(range(len(square_links))), model
        )
        for slot in slots:
            assert is_feasible_some_power(square_links, model, slot)


class TestBuilderModes:
    @pytest.mark.parametrize("mode", ["global", "oblivious", "uniform", "linear"])
    def test_schedule_validates(self, model, square_links, mode):
        builder = ScheduleBuilder(model, mode)
        schedule = builder.build(square_links)
        schedule.validate()  # raises on any violation
        assert schedule.num_slots >= 1

    def test_global_uses_log_graph(self, model, square_links):
        builder = ScheduleBuilder(model, PowerMode.GLOBAL)
        assert "G_log" in builder.conflict_graph(square_links).threshold.name

    def test_oblivious_uses_power_graph(self, model, square_links):
        builder = ScheduleBuilder(model, PowerMode.OBLIVIOUS)
        assert "G_pow" in builder.conflict_graph(square_links).threshold.name

    def test_report_consistency(self, model, square_links):
        schedule, report = ScheduleBuilder(model, "global").build_with_report(
            square_links
        )
        assert report.final_slots == schedule.num_slots
        assert report.initial_colors <= report.final_slots
        assert sum(report.slot_sizes) == len(square_links)
        assert report.rate == pytest.approx(schedule.rate)

    def test_invalid_gamma(self, model):
        with pytest.raises(ConfigurationError):
            ScheduleBuilder(model, "global", gamma=0.0)

    def test_string_mode_coerced(self, model):
        assert ScheduleBuilder(model, "oblivious").mode is PowerMode.OBLIVIOUS

    def test_unknown_mode_rejected(self, model):
        with pytest.raises(ConfigurationError, match="unknown power mode 'psychic'"):
            ScheduleBuilder(model, "psychic")

    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda model, mode: ScheduleBuilder(model, mode),
            lambda model, mode: IncrementalScheduler(model, mode),
            lambda model, mode: DistributedSchedulingSimulator(model, mode),
            lambda model, mode: predicted_slots(mode, 16.0, 10),
        ],
        ids=["builder", "incremental", "distributed", "theory"],
    )
    def test_unknown_mode_is_a_typed_error_listing_modes(self, model, entry_point):
        with pytest.raises(ConfigurationError) as err:
            entry_point(model, "bogus")
        assert str(err.value) == (
            "unknown power mode 'bogus'; valid modes: "
            "global, oblivious, uniform, linear"
        )
        entry_point(model, "oblivious")  # valid names still convert


class TestBuilderQuality:
    def test_global_beats_uniform_on_chain(self, model):
        """The paper's headline gap: exponential chains force uniform
        power to ~n slots while global power stays near-constant."""
        links = AggregationTree.mst(exponential_line(14)).links()
        global_slots = ScheduleBuilder(model, "global").build(links).num_slots
        uniform_slots = ScheduleBuilder(model, "uniform").build(links).num_slots
        assert uniform_slots >= len(links) * 0.8
        assert global_slots <= 8

    def test_oblivious_between(self, model):
        links = AggregationTree.mst(exponential_line(14)).links()
        oblivious_slots = ScheduleBuilder(model, "oblivious").build(links).num_slots
        assert oblivious_slots <= 12  # ~ log log Delta territory

    def test_larger_gamma_never_hurts_feasibility(self, model, square_links):
        # With a big gamma the conflict graph is denser, so repair never
        # fires; check the report agrees.
        _schedule, report = ScheduleBuilder(
            model, "global", gamma=4.0
        ).build_with_report(square_links)
        assert report.split_classes == 0

    def test_build_for_tree(self, model, square_tree):
        schedule = ScheduleBuilder(model, "global").build_for_tree(square_tree)
        assert len(schedule.links) == len(square_tree.points) - 1

    def test_deterministic(self, model, square_links):
        a = ScheduleBuilder(model, "global").build(square_links)
        b = ScheduleBuilder(model, "global").build(square_links)
        assert a.colors().tolist() == b.colors().tolist()

    def test_noisy_model_oblivious(self, noisy_model, square_links):
        schedule = ScheduleBuilder(noisy_model, "oblivious").build(square_links)
        schedule.validate()
