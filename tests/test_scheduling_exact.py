"""Tests for the exact scheduler and the fractional-rate LP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry.generators import uniform_square
from repro.links.linkset import LinkSet
from repro.power.oblivious import UniformPower
from repro.scheduling.builder import ScheduleBuilder
from repro.scheduling.exact import (
    feasible_masks,
    minimum_schedule,
    minimum_schedule_length,
)
from repro.scheduling.fractional import _packing_lp, optimal_fractional_rate
from repro.sinr.powercontrol import is_feasible_some_power
from repro.spanning.tree import AggregationTree


@pytest.fixture
def small_links(model):
    return AggregationTree.mst(uniform_square(9, rng=151)).links()


class TestFeasibleMasks:
    def test_downward_closed(self, model, small_links):
        table = feasible_masks(small_links, model)
        n = len(small_links)
        for mask in range(1, 1 << n):
            if table[mask]:
                for i in range(n):
                    if mask >> i & 1:
                        assert table[mask ^ (1 << i)]

    def test_matches_oracle_on_samples(self, model, small_links):
        table = feasible_masks(small_links, model)
        rng = np.random.default_rng(0)
        n = len(small_links)
        for _ in range(25):
            mask = int(rng.integers(1, 1 << n))
            subset = [i for i in range(n) if mask >> i & 1]
            assert table[mask] == is_feasible_some_power(small_links, model, subset)

    def test_size_cap(self, model):
        links = AggregationTree.mst(uniform_square(20, rng=5)).links()
        with pytest.raises(ConfigurationError):
            feasible_masks(links, model)


class TestMinimumSchedule:
    def test_partition_and_feasibility(self, model, small_links):
        slots = minimum_schedule(small_links, model)
        flat = sorted(i for s in slots for i in s)
        assert flat == list(range(len(small_links)))
        for s in slots:
            assert is_feasible_some_power(small_links, model, s)

    def test_never_longer_than_greedy(self, model, small_links):
        exact = minimum_schedule_length(small_links, model)
        greedy = ScheduleBuilder(model, "global").build(small_links).num_slots
        assert exact <= greedy

    def test_greedy_constant_approximation(self, model):
        """The paper's approximation guarantee, measured: greedy is
        within a small constant of optimal on random MSTs."""
        worst = 0.0
        for seed in range(4):
            links = AggregationTree.mst(uniform_square(9, rng=seed)).links()
            exact = minimum_schedule_length(links, model)
            greedy = ScheduleBuilder(model, "global").build(links).num_slots
            worst = max(worst, greedy / exact)
        assert worst <= 3.0

    def test_pairwise_infeasible_instance_needs_n(self, model):
        from repro.lowerbounds.oblivious_chain import DoublyExponentialChain

        chain = DoublyExponentialChain(5, 0.5, model=model, base=4.0)
        links = AggregationTree.mst(chain.pointset(), sink=0).links()
        scheme = __import__("repro.power.oblivious", fromlist=["ObliviousPower"]).ObliviousPower(
            0.5, model.alpha
        )
        assert minimum_schedule_length(links, model, power=scheme) == len(links)

    def test_two_far_links_one_slot(self, model, two_parallel_links):
        assert minimum_schedule_length(two_parallel_links, model) == 1


class TestFractionalRate:
    def test_at_least_coloring_rate(self, model, small_links):
        exact = minimum_schedule_length(small_links, model)
        frac = optimal_fractional_rate(small_links, model)
        assert frac.rate >= 1.0 / exact - 1e-9

    def test_weights_form_distribution(self, model, small_links):
        frac = optimal_fractional_rate(small_links, model)
        assert sum(frac.weights) == pytest.approx(1.0, abs=1e-6)
        assert all(w >= -1e-9 for w in frac.weights)

    def test_coverage_meets_rate(self, model, small_links):
        frac = optimal_fractional_rate(small_links, model)
        for i in range(len(small_links)):
            covered = sum(w for s, w in zip(frac.sets, frac.weights) if i in s)
            assert covered >= frac.rate - 1e-6

    def test_multicoloring_beats_coloring_on_odd_structure(self, model):
        """The Section 4 phenomenon: a 5-link cyclic conflict structure
        where the fractional rate strictly exceeds 1/chromatic.

        Built from 5 links around a ring where only non-adjacent pairs
        are feasible (the SINR analogue of the 5-cycle example).
        """
        import math

        # Five unit links tangent to a circle; radius tuned so only
        # ring-adjacent links conflict.
        radius = 0.9
        senders, receivers = [], []
        for k in range(5):
            theta = 2 * math.pi * k / 5
            cx, cy = radius * math.cos(theta), radius * math.sin(theta)
            dx, dy = -math.sin(theta), math.cos(theta)
            senders.append((cx - 0.5 * dx, cy - 0.5 * dy))
            receivers.append((cx + 0.5 * dx, cy + 0.5 * dy))
        links = LinkSet(np.array(senders), np.array(receivers))
        exact = minimum_schedule_length(links, model)
        frac = optimal_fractional_rate(links, model)
        if exact >= 3:  # the intended 5-cycle structure materialised
            assert frac.rate > 1.0 / exact + 1e-6
            assert frac.rate == pytest.approx(0.4, abs=0.02)

    def test_size_cap(self, model):
        links = AggregationTree.mst(uniform_square(20, rng=5)).links()
        with pytest.raises(ConfigurationError):
            optimal_fractional_rate(links, model)


def _incidence(seed: int, n: int, m: int) -> np.ndarray:
    """A random links x sets 0/1 matrix with every link in some set."""
    gen = np.random.default_rng(seed)
    incidence = (gen.random((n, m)) < gen.uniform(0.1, 0.7)).astype(float)
    incidence[np.arange(n), gen.integers(m, size=n)] = 1.0
    return incidence


class TestPackingLP:
    """The scipy-free simplex against ``linprog`` on the covering LP the
    fractional rate was first written as."""

    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(1, 40)
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_linprog(self, seed, n, m):
        linprog = pytest.importorskip("scipy.optimize").linprog
        incidence = _incidence(seed, n, m)
        packing, cover = _packing_lp(incidence)
        # maximise rho: rho <= sum_{S ni i} x_S, sum x_S = 1, x >= 0.
        c = np.zeros(m + 1)
        c[-1] = -1.0
        a_ub = np.hstack([-incidence, np.ones((n, 1))])
        a_eq = np.r_[np.ones(m), 0.0][None, :]
        ref = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
                      bounds=[(0.0, None)] * (m + 1))
        assert ref.success
        assert 1.0 / packing == pytest.approx(ref.x[-1], rel=1e-12, abs=1e-12)
        # The dual is a feasible cover of the same value.
        assert np.all(cover >= 0)
        assert np.all(incidence @ cover >= 1 - 1e-9)
        assert cover.sum() == pytest.approx(packing, rel=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(1, 40)
    )
    @settings(max_examples=100, deadline=None)
    def test_weights_are_a_distribution_covering_the_rate(self, seed, n, m):
        incidence = _incidence(seed, n, m)
        packing, cover = _packing_lp(incidence)
        weights = cover / cover.sum()
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(incidence @ weights >= 1.0 / packing - 1e-9)

    def test_five_cycle(self):
        """Maximal independent sets of C5 are its five non-adjacent
        pairs: fractional rate 2/5, each pair weighted 1/5."""
        pairs = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
        incidence = np.zeros((5, 5))
        for col, (a, b) in enumerate(pairs):
            incidence[[a, b], col] = 1.0
        packing, cover = _packing_lp(incidence)
        assert 1.0 / packing == pytest.approx(0.4, abs=1e-15)
        assert cover / cover.sum() == pytest.approx(np.full(5, 0.2), abs=1e-15)
