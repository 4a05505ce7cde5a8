"""Tests for the additive interference operators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, LinkError
from repro.links.linkset import LinkSet
from repro.sinr.affectance import (
    additive_interference,
    additive_interference_matrix,
    mst_sparsity_bound,
    relative_interference_matrix,
)
from repro.sinr.feasibility import is_feasible_with_power


class TestAdditiveInterferenceMatrix:
    def test_diagonal_zero(self, square_links, model):
        m = additive_interference_matrix(square_links, model.alpha)
        assert np.all(np.diag(m) == 0)

    def test_capped_at_one(self, square_links, model):
        m = additive_interference_matrix(square_links, model.alpha)
        assert np.all(m <= 1.0)

    def test_manual_value(self, model):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [5.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [7.0, 0.0]]),
        )
        m = additive_interference_matrix(links, model.alpha)
        # I(0, 1) = min(1, l_0^3 / d(0,1)^3) = (1/4)^3.
        assert m[0, 1] == pytest.approx((1.0 / 4.0) ** 3)
        # I(1, 0) = min(1, 2^3 / 4^3).
        assert m[1, 0] == pytest.approx((2.0 / 4.0) ** 3)

    def test_shared_node_saturates(self, model):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [3.0, 0.0]]),
        )
        m = additive_interference_matrix(links, model.alpha)
        assert m[0, 1] == 1.0 and m[1, 0] == 1.0

    def test_additive_interference_sums(self, square_links, model):
        m = additive_interference_matrix(square_links, model.alpha)
        total = additive_interference(square_links, model.alpha, [0, 1, 2], 5)
        assert total == pytest.approx(float(m[[0, 1, 2], 5].sum()))

    def test_empty_source(self, square_links, model):
        assert additive_interference(square_links, model.alpha, [], 0) == 0.0


class TestRelativeInterference:
    def test_row_sum_criterion_matches_feasibility(self, model, two_parallel_links):
        r = relative_interference_matrix(two_parallel_links, [1.0, 1.0], model)
        row_ok = np.all(r.sum(axis=0) <= 1.0 / model.beta)
        assert row_ok == is_feasible_with_power(
            two_parallel_links, [1.0, 1.0], model
        )

    def test_scale_invariant_in_power(self, model, square_links):
        p1 = np.ones(len(square_links))
        r1 = relative_interference_matrix(square_links, p1, model)
        r2 = relative_interference_matrix(square_links, 100.0 * p1, model)
        assert np.allclose(r1, r2)

    def test_active_subset(self, model, square_links):
        r = relative_interference_matrix(
            square_links, np.ones(len(square_links)), model, active=[0, 3]
        )
        assert r.shape == (2, 2)

    @pytest.mark.parametrize(
        "power",
        [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, np.nan, 1.0]],
        ids=["too-short", "too-long", "negative", "nan"],
    )
    def test_rejects_bad_power_vectors(self, model, power):
        """The checks sinr_values makes: a power per link, each positive
        and finite."""
        links = LinkSet(np.arange(6.0).reshape(3, 2), np.arange(6.0).reshape(3, 2) + 0.5)
        with pytest.raises(ConfigurationError, match="power"):
            relative_interference_matrix(links, power, model)

    def test_rejects_a_repeated_active_link(self, model):
        links = LinkSet(np.arange(6.0).reshape(3, 2), np.arange(6.0).reshape(3, 2) + 0.5)
        with pytest.raises(LinkError, match="link index 0 is repeated"):
            relative_interference_matrix(links, np.ones(3), model, active=[0, 0, 1])


class TestMstSparsity:
    def test_lemma_one_small_constant_on_random_msts(self, model):
        """Lemma 1 ([11, 4.2]): I(i, S+_i) = O(1) for MST link sets."""
        from repro.geometry.generators import uniform_square
        from repro.spanning.tree import AggregationTree

        worst = 0.0
        for seed in range(5):
            tree = AggregationTree.mst(uniform_square(60, rng=seed))
            worst = max(worst, mst_sparsity_bound(tree.links(), model.alpha))
        assert worst <= 8.0  # comfortably constant

    def test_grid_mst_sparsity(self, model):
        from repro.geometry.generators import grid_points
        from repro.spanning.tree import AggregationTree

        # Equal-length grid links share endpoints (each saturating the
        # operator at 1), so the constant is larger than for generic
        # positions but still independent of the grid size.
        tree6 = AggregationTree.mst(grid_points(6, 6))
        tree9 = AggregationTree.mst(grid_points(9, 9))
        b6 = mst_sparsity_bound(tree6.links(), model.alpha)
        b9 = mst_sparsity_bound(tree9.links(), model.alpha)
        assert b9 <= 20.0
        assert b9 <= b6 * 1.5  # no growth with instance size
