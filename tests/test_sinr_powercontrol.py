"""Tests for power-control feasibility (the spectral oracle)."""

import numpy as np
import pytest

from repro.errors import InfeasibleError, LinkError
from repro.links.linkset import LinkSet
from repro.sinr.feasibility import is_feasible_with_power
from repro.sinr.model import SINRModel
from repro.sinr.powercontrol import (
    affectance_matrix,
    feasible_power_assignment,
    is_feasible_some_power,
    spectral_radius,
)


class TestAffectanceMatrix:
    def test_zero_diagonal(self, model, two_parallel_links):
        a = affectance_matrix(two_parallel_links, model)
        assert np.all(np.diag(a) == 0)

    def test_manual_entry(self, model):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [10.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [11.0, 0.0]]),
        )
        a = affectance_matrix(links, model)
        # A[0, 1] = beta * l_0^alpha / d(s_1, r_0)^alpha = 1 / 9^3.
        assert a[0, 1] == pytest.approx(1.0 / 9.0**3)
        assert a[1, 0] == pytest.approx(1.0 / 11.0**3)

    def test_shared_node_raises(self, model):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [2.0, 0.0]]),
        )
        with pytest.raises(InfeasibleError):
            affectance_matrix(links, model)


class TestSpectralRadius:
    def test_empty(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    def test_scalar(self):
        assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5)

    def test_known_matrix(self):
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert spectral_radius(m) == pytest.approx(0.5)


class TestIsFeasibleSomePower:
    def test_far_links(self, model, two_parallel_links):
        assert is_feasible_some_power(two_parallel_links, model)

    def test_close_links(self, model, two_close_links):
        assert not is_feasible_some_power(two_close_links, model)

    def test_singleton_always(self, model, two_close_links):
        assert is_feasible_some_power(two_close_links, model, [0])

    def test_shared_node_infeasible(self, model):
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([[1.0, 0.0], [2.0, 0.0]]),
        )
        assert not is_feasible_some_power(links, model)

    def test_power_control_strictly_stronger(self, model):
        # Nested links: infeasible with ANY common oblivious power of
        # tau=0 (uniform), feasible with tailored powers.
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [100.0, 0.0]]),
            receivers=np.array([[90.0, 0.0], [104.0, 0.0]]),
        )
        assert not is_feasible_with_power(links, [1.0, 1.0], model)
        assert is_feasible_some_power(links, model)


class TestFeasiblePowerAssignment:
    def test_certifies_itself(self, model, two_parallel_links):
        q = feasible_power_assignment(two_parallel_links, model)
        assert is_feasible_with_power(two_parallel_links, q, model)

    def test_raises_on_infeasible(self, model, two_close_links):
        with pytest.raises(InfeasibleError):
            feasible_power_assignment(two_close_links, model)

    def test_positive_powers(self, model, square_links):
        # Use a well-separated subset.
        from repro.conflict.graph import arbitrary_graph
        from repro.coloring.greedy import greedy_coloring

        colors = greedy_coloring(arbitrary_graph(square_links, 2.0, model.alpha))
        subset = np.flatnonzero(colors == 0)
        q = feasible_power_assignment(square_links, model, subset)
        assert np.all(q > 0)
        assert is_feasible_with_power(
            square_links, _expand(q, subset, len(square_links)), model, subset
        )

    def test_noise_respects_min_power(self, two_parallel_links):
        m = SINRModel(alpha=3.0, beta=1.0, noise=0.01, epsilon=0.5)
        q = feasible_power_assignment(two_parallel_links, m)
        minimum = (1 + m.epsilon) * m.beta * m.noise * two_parallel_links.lengths**m.alpha
        assert np.all(q >= minimum * (1 - 1e-12))
        assert is_feasible_with_power(two_parallel_links, q, m)

    def test_singleton(self, model, two_close_links):
        q = feasible_power_assignment(two_close_links, model, [0])
        assert q.shape == (1,) and q[0] > 0


def _expand(q, subset, n):
    vec = np.ones(n)
    for value, idx in zip(q, subset):
        vec[int(idx)] = value
    return vec


class TestOracleConsistency:
    def test_spectral_vs_direct(self, model, square_links):
        # For random subsets: spectral feasibility == existence of the
        # Neumann power vector passing the direct SINR check.
        rng = np.random.default_rng(0)
        n = len(square_links)
        for _ in range(20):
            size = int(rng.integers(2, 6))
            subset = rng.choice(n, size=size, replace=False).tolist()
            spectral = is_feasible_some_power(square_links, model, subset)
            try:
                q = feasible_power_assignment(square_links, model, subset)
                direct = is_feasible_with_power(
                    square_links, _expand(q, subset, n), model, subset
                )
            except InfeasibleError:
                direct = False
            assert spectral == direct


class TestRepeatedIndex:
    """A repeated index is a :class:`LinkError` naming it, never two
    copies of one link that do not interfere with each other."""

    @pytest.mark.parametrize("active, repeated", [([0, 0], 0), ([2, 0, 2], 2)])
    @pytest.mark.parametrize(
        "oracle", [affectance_matrix, is_feasible_some_power, feasible_power_assignment]
    )
    def test_raises_naming_the_index(self, model, three_far_links, oracle, active, repeated):
        with pytest.raises(LinkError, match=f"link index {repeated} is repeated"):
            oracle(three_far_links, model, active)

    def test_distinct_indices_still_answer(self, model, three_far_links):
        assert is_feasible_some_power(three_far_links, model, [2, 0, 1])
        assert feasible_power_assignment(three_far_links, model, [2, 0, 1]).shape == (3,)
