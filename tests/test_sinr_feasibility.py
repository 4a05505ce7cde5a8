"""Tests for fixed-power SINR feasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, LinkError
from repro.links.linkset import LinkSet
from repro.sinr.feasibility import (
    denominator_limit,
    is_feasible_with_power,
    max_relative_interference,
    sinr_from_denominators,
    sinr_values,
)
from repro.sinr.model import SINRModel


class TestSinrValues:
    def test_single_link_noiseless_infinite(self, model, two_parallel_links):
        values = sinr_values(two_parallel_links, [1.0, 1.0], model, active=[0])
        assert values[0] == np.inf

    def test_single_link_with_noise(self, two_parallel_links):
        m = SINRModel(alpha=3.0, beta=1.0, noise=0.5)
        values = sinr_values(two_parallel_links, [2.0, 2.0], m, active=[0])
        # signal = 2 / 1^3 = 2; SINR = 2 / 0.5 = 4.
        assert values[0] == pytest.approx(4.0)

    def test_two_links_manual(self, model):
        # Colinear: s0=0, r0=1, s1=10, r1=11; unit powers, alpha=3.
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [10.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [11.0, 0.0]]),
        )
        values = sinr_values(links, [1.0, 1.0], model)
        # Receiver 0: signal 1, interference from s1 at distance 9.
        assert values[0] == pytest.approx(9.0**3)
        # Receiver 1: interference from s0 at distance 11.
        assert values[1] == pytest.approx(11.0**3)

    def test_shared_node_gives_zero_sinr(self, model):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [2.0, 0.0]]),
        )
        values = sinr_values(links, [1.0, 1.0], model)
        # Sender of link 1 sits on receiver of link 0: infinite interference.
        assert values[0] == 0.0

    def test_power_vector_shape_checked(self, model, two_parallel_links):
        with pytest.raises(ConfigurationError):
            sinr_values(two_parallel_links, [1.0], model)

    def test_rejects_nonpositive_power(self, model, two_parallel_links):
        with pytest.raises(ConfigurationError):
            sinr_values(two_parallel_links, [1.0, 0.0], model)

    def test_accepts_power_assignment_object(self, model, two_parallel_links):
        from repro.power.oblivious import UniformPower

        values = sinr_values(two_parallel_links, UniformPower(model.alpha), model)
        assert values.shape == (2,)


class TestFeasibility:
    def test_far_links_feasible(self, model, two_parallel_links):
        assert is_feasible_with_power(two_parallel_links, [1.0, 1.0], model)

    def test_close_links_infeasible(self, model, two_close_links):
        assert not is_feasible_with_power(two_close_links, [1.0, 1.0], model)

    def test_subset_of_feasible_is_feasible(self, model, square_links):
        # Any singleton is feasible in a noiseless model.
        for i in range(0, len(square_links), 7):
            assert is_feasible_with_power(
                square_links, np.ones(len(square_links)), model, [i]
            )

    def test_slack_tightens(self, model):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [0.0, 2.1]]),
            receivers=np.array([[1.0, 0.0], [1.0, 2.1]]),
        )
        assert is_feasible_with_power(links, [1.0, 1.0], model)
        assert not is_feasible_with_power(links, [1.0, 1.0], model, slack=100.0)

    def test_monotone_in_beta(self, two_parallel_links):
        weak = SINRModel(alpha=3.0, beta=1.0)
        strong = SINRModel(alpha=3.0, beta=1e7)
        assert is_feasible_with_power(two_parallel_links, [1.0, 1.0], weak)
        assert not is_feasible_with_power(two_parallel_links, [1.0, 1.0], strong)


    @pytest.mark.parametrize("slack", [-1.0, -1e-12, np.nan, np.inf, -np.inf])
    def test_slack_must_be_finite_and_non_negative(self, model, two_parallel_links, slack):
        with pytest.raises(ConfigurationError, match="slack must be finite"):
            is_feasible_with_power(two_parallel_links, [1.0, 1.0], model, slack=slack)

    def test_overflowing_threshold_is_rejected(self, two_parallel_links):
        model = SINRModel(alpha=3.0, beta=1e308)
        with pytest.raises(ConfigurationError, match="overflows"):
            is_feasible_with_power(two_parallel_links, [1.0, 1.0], model, slack=1.0)


def _ulps_around(x: float, k: int) -> list:
    """``x`` and its ``k`` neighbours on either side."""
    below, above, out = x, x, [x]
    for _ in range(k):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


SPECIAL_DENOMINATORS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -1.0, 5e-324, 1e-310, 2.2e-308, 1.0, 1e308,
]


class TestDenominatorLimit:
    """``not d > limit`` is ``sinr_from_denominators(d) >= threshold``
    for every double ``d``: the fixed-power packer's one predicate."""

    @staticmethod
    def _agree(threshold: float, denominators) -> None:
        limit = denominator_limit(threshold)
        d = np.array(denominators, dtype=float)
        assert np.array_equal(~(d > limit), sinr_from_denominators(d) >= threshold)
        # limit itself passes and the next double up fails.
        assert sinr_from_denominators(np.float64(limit)) >= threshold
        with np.errstate(over="ignore"):
            above = np.nextafter(limit, np.inf)
        assert not sinr_from_denominators(above) >= threshold

    @given(
        mantissa=st.floats(1.0, 2.0, exclude_max=True),
        exponent=st.integers(-1070, 1023),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_limit_matches_the_sinr_rule(self, mantissa, exponent, seed):
        threshold = float(np.ldexp(mantissa, exponent))
        with np.errstate(over="ignore"):
            near = float(np.float64(1.0) / np.float64(threshold))
        gen = np.random.default_rng(seed)
        scatter = near * gen.uniform(0.5, 2.0, size=20) if np.isfinite(near) else []
        self._agree(
            threshold, SPECIAL_DENOMINATORS + _ulps_around(near, 6) + list(scatter)
        )

    @pytest.mark.parametrize("threshold", [1.0, 3.0, 0.1, 1.5 * (1 + 0.5), 5e-324, 1.7e308])
    def test_model_thresholds(self, threshold):
        with np.errstate(over="ignore"):
            near = float(np.float64(1.0) / np.float64(threshold))
        self._agree(threshold, SPECIAL_DENOMINATORS + _ulps_around(near, 6))

    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.inf, np.nan])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        with pytest.raises(ConfigurationError):
            denominator_limit(threshold)


class TestMaxRelativeInterference:
    def test_feasible_below_one(self, model, two_parallel_links):
        assert max_relative_interference(two_parallel_links, [1.0, 1.0], model) <= 1.0

    def test_infeasible_above_one(self, model, two_close_links):
        assert max_relative_interference(two_close_links, [1.0, 1.0], model) > 1.0

    def test_noiseless_single_link_zero(self, model, two_parallel_links):
        assert (
            max_relative_interference(two_parallel_links, [1.0, 1.0], model, [0]) == 0.0
        )


class TestRepeatedIndex:
    """A repeated index is a :class:`LinkError` naming it: the kernels
    zero every entry whose row and column indices coincide, so two
    copies of one link would otherwise never interfere."""

    @pytest.mark.parametrize("active, repeated", [([0, 0], 0), ([2, 0, 2], 2)])
    def test_is_feasible_with_power_raises(self, model, three_far_links, active, repeated):
        with pytest.raises(LinkError, match=f"link index {repeated} is repeated"):
            is_feasible_with_power(three_far_links, np.ones(3), model, active)

    @pytest.mark.parametrize("active, repeated", [([0, 0], 0), ([2, 0, 2], 2)])
    def test_sinr_values_raises(self, model, three_far_links, active, repeated):
        with pytest.raises(LinkError, match=f"link index {repeated} is repeated"):
            sinr_values(three_far_links, np.ones(3), model, active)

    def test_distinct_indices_still_answer(self, model, three_far_links):
        assert is_feasible_with_power(three_far_links, np.ones(3), model, [2, 0, 1])
