"""Tests for baseline schedulers."""

import numpy as np
import pytest

from oracles.dense_full import adjacency, protocol_conflict_matrix
from repro.api.config import PipelineConfig
from repro.api.pipeline import Pipeline
from repro.errors import ConfigurationError
from repro.geometry.generators import exponential_line, uniform_square
from repro.power.oblivious import LinearPower, UniformPower
from repro.scheduling.baselines import (
    greedy_sinr_schedule,
    protocol_graph,
    protocol_model_schedule,
    trivial_tdma_schedule,
)
from repro.spanning.tree import AggregationTree


class TestTrivialTdma:
    def test_one_link_per_slot(self, model, square_links):
        schedule = trivial_tdma_schedule(square_links, model)
        assert schedule.num_slots == len(square_links)
        assert all(len(slot) == 1 for slot in schedule)

    def test_rate(self, model, square_links):
        schedule = trivial_tdma_schedule(square_links, model)
        assert schedule.rate == pytest.approx(1.0 / len(square_links))


class TestGreedySinr:
    def test_validates(self, model, square_links):
        schedule = greedy_sinr_schedule(square_links, UniformPower(model.alpha), model)
        schedule.validate()

    def test_never_worse_than_tdma(self, model, square_links):
        schedule = greedy_sinr_schedule(square_links, UniformPower(model.alpha), model)
        assert schedule.num_slots <= len(square_links)

    def test_uniform_power_degenerates_on_chain(self, model):
        """No power control on an exponential chain: Theta(n) slots."""
        links = AggregationTree.mst(exponential_line(12)).links()
        schedule = greedy_sinr_schedule(links, UniformPower(model.alpha), model)
        assert schedule.num_slots == len(links)

    def test_linear_power_also_packs(self, model, square_links):
        schedule = greedy_sinr_schedule(links=square_links, power=LinearPower(model.alpha), model=model)
        schedule.validate()
        assert schedule.num_slots <= len(square_links)


class TestProtocolModel:
    def test_conflict_graph_is_the_dense_oracle(self, square_links):
        c = protocol_conflict_matrix(square_links)
        assert np.array_equal(c, c.T)  # conflicts are mutual by construction
        assert not np.any(np.diag(c))
        assert adjacency(protocol_graph(square_links)).tobytes() == c.tobytes()

    def test_shared_node_conflicts(self):
        from repro.links.linkset import LinkSet

        links = LinkSet(
            senders=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [2.0, 0.0]]),
        )
        assert protocol_graph(links).are_adjacent(0, 1)

    def test_far_links_independent(self, two_parallel_links):
        assert not protocol_graph(two_parallel_links, guard=1.0).are_adjacent(0, 1)

    def test_guard_widens_conflicts(self, square_links):
        narrow = protocol_graph(square_links, guard=0.1).edge_count
        wide = protocol_graph(square_links, guard=3.0).edge_count
        assert wide >= narrow

    def test_invalid_guard(self, square_links):
        with pytest.raises(ConfigurationError):
            protocol_graph(square_links, guard=-1.0)

    @pytest.mark.parametrize(
        "guard,message",
        [(float("nan"), "finite"), (True, "real number"), (1e400, "finite"), ("1", "real number")],
        ids=["nan", "bool", "inf", "string"],
    )
    def test_guard_is_a_finite_real(self, model, square_links, guard, message):
        """NaN made every disk test false, infinity every one true, a
        bool ran as 1 and a string raised a bare TypeError."""
        with pytest.raises(ConfigurationError, match=f"guard must be .*{message}"):
            protocol_model_schedule(square_links, model, guard=guard)

    @pytest.mark.parametrize("guard", [float("nan"), True, 1e400, "1"], ids=["nan", "bool", "inf", "string"])
    def test_pipeline_rejects_a_bad_guard(self, guard):
        config = PipelineConfig(
            topology="square", n=60, scheduler="protocol-model", scheduler_params={"guard": guard}
        )
        with pytest.raises(ConfigurationError, match="guard must be"):
            Pipeline(config).run()

    def test_schedule_partitions(self, model, square_links):
        schedule = protocol_model_schedule(square_links, model)
        colors = schedule.colors()
        assert np.all(colors >= 0)
        # Proper wrt the dense protocol conflict matrix.
        c = protocol_conflict_matrix(square_links)
        same = colors[:, None] == colors[None, :]
        assert not np.any(same & c)

    def test_random_network_logarithmic_shape(self, model):
        """Protocol-model slot counts grow slowly (log-ish) on uniform
        random instances — the Related-Work baseline shape."""
        slots = []
        for n in (30, 120):
            links = AggregationTree.mst(uniform_square(n, rng=3)).links()
            slots.append(protocol_model_schedule(links, model).num_slots)
        assert slots[1] <= slots[0] * 3  # far from linear growth
