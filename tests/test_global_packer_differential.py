"""Differential suite: the Perron-bound global packer against ``eigvals``.

:func:`repro.scheduling.repair.split_into_feasible_slots` decides every
global-power probe with warm-started Collatz-Wielandt bounds and calls
``eigvals`` only as the fallback.  Its contract is byte identity with
the original predicate-driven loop, whose predicate is
``spectral_radius(affectance_matrix(...)) < 1 - FEASIBILITY_MARGIN``
(``tests/oracles/repair_loops.py``):

* the packer's slots equal the oracle's, class by class, on hypothesis
  topologies, path-loss exponents and sizes, and the builder's
  certified powers equal the original power solve's bit for bit;
* the decision helper equals the ``eigvals`` verdict on real slot
  blocks rescaled so that their spectral radius lands 1e-9 to 1e-3 from
  the limit, on both sides;
* degenerate blocks (an oscillating 2x2, iterates that underflow,
  infinite entries) get the ``eigvals`` verdict, or ``False`` where
  ``eigvals`` cannot run, within ``PERRON_MAX_STEPS`` matrix-vector
  products.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Pipeline, PipelineConfig
from repro.coloring.greedy import greedy_coloring
from repro.coloring.validation import color_classes
from repro.constants import FEASIBILITY_MARGIN, PERRON_MAX_STEPS
from repro.scheduling.builder import ScheduleBuilder
from repro.scheduling.repair import split_into_feasible_slots
from repro.sinr.powercontrol import _perron_feasible, affectance_matrix, spectral_radius
from repro.store.store import StageStore

from oracles.repair_loops import (
    eigvals_feasible,
    eigvals_power_assignment,
    split_with_predicate,
)

LIMIT = 1.0 - FEASIBILITY_MARGIN
TOPOLOGIES = ("square", "disk", "grid", "clusters", "exponential")
ALPHAS = (2.5, 3.0, 4.0)


def _instance(topology: str, n: int, alpha: float, seed: int, gamma: float):
    """Links, model and color classes of one global build."""
    config = PipelineConfig(
        topology=topology, n=n, power="global", seed=seed, alpha=alpha, num_frames=0
    )
    pipeline = Pipeline(config, store=StageStore())
    links = pipeline.build_tree(pipeline.deploy()).links()
    builder = ScheduleBuilder(pipeline.model, "global", gamma=gamma)
    classes = color_classes(greedy_coloring(builder.conflict_graph(links)))
    return links, pipeline.model, builder, [classes[c] for c in sorted(classes)]


class TestPackerMatchesOracle:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        alpha=st.sampled_from(ALPHAS),
        n=st.integers(20, 160),
        seed=st.integers(0, 3),
        gamma=st.sampled_from((0.25, 1.0)),
    )
    def test_slots_and_powers_equal_the_oracle(self, topology, alpha, n, seed, gamma):
        links, model, builder, classes = _instance(topology, n, alpha, seed, gamma)
        predicate = eigvals_feasible(links, model)
        expected = [
            slot for cls in classes for slot in split_with_predicate(links, cls, predicate)
        ]
        packed = [slot for cls in classes for slot in split_into_feasible_slots(links, cls, model)]
        assert packed == expected
        for slot in expected:
            powers = builder._certify_slot(links, slot, None).powers
            q = eigvals_power_assignment(links, model, slot)
            assert np.asarray(powers).tobytes() == q.tobytes()

    def test_split_classes_probe_the_packer(self):
        """The n=150 square instance at gamma 0.25 splits classes, so the
        first-fit probes (not just whole-class checks) are compared."""
        links, model, _, classes = _instance("square", 150, 3.0, 0, 0.25)
        pieces = [split_into_feasible_slots(links, cls, model) for cls in classes]
        assert any(len(p) > 1 for p in pieces)
        predicate = eigvals_feasible(links, model)
        assert pieces == [split_with_predicate(links, cls, predicate) for cls in classes]

    def test_shared_node_probe_is_rejected(self, model):
        """A chain of links sharing nodes: every probe meets an infinite
        affectance and the decision helper rejects it, as the oracle's
        ``InfeasibleError`` rejects it."""
        from repro.links.linkset import LinkSet

        xs = np.arange(6, dtype=float)
        links = LinkSet(
            senders=np.stack([xs[:-1], np.zeros(5)], axis=1),
            receivers=np.stack([xs[1:], np.zeros(5)], axis=1),
        )
        cls = list(range(5))
        expected = split_with_predicate(links, cls, eigvals_feasible(links, model))
        assert split_into_feasible_slots(links, cls, model) == expected
        assert len(expected) > 1


@functools.lru_cache(maxsize=None)
def _slot_blocks():
    """Affectance blocks of real certified slots (two or more links)."""
    blocks = []
    for topology in ("square", "disk", "clusters", "grid"):
        for alpha in ALPHAS:
            links, model, builder, _ = _instance(topology, 120, alpha, 1, 0.25)
            for slot in builder.build(links).slots:
                if len(slot) >= 2:
                    blocks.append(affectance_matrix(links, model, list(slot.link_indices)))
    return blocks


class CountingMatrix(np.ndarray):
    """An array that counts the matrix-vector products taken with it."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ other


def _decide(a: np.ndarray) -> bool:
    """The helper's verdict, asserting its step budget."""
    CountingMatrix.products = 0
    verdict, _ = _perron_feasible(np.asarray(a, dtype=float).view(CountingMatrix), LIMIT)
    assert CountingMatrix.products <= PERRON_MAX_STEPS
    return verdict


class TestDecisionHelper:
    def test_real_blocks_exist(self):
        assert len(_slot_blocks()) >= 20

    @settings(max_examples=150, deadline=None)
    @given(
        pick=st.integers(0, 10**6),
        exponent=st.floats(-9.0, -3.0),
        above=st.booleans(),
    )
    def test_near_threshold_equals_eigvals(self, pick, exponent, above):
        blocks = _slot_blocks()
        a = blocks[pick % len(blocks)]
        offset = 10.0**exponent
        target = LIMIT * (1.0 + offset if above else 1.0 - offset)
        scaled = a * (target / spectral_radius(a))
        assert _decide(scaled) == (spectral_radius(scaled) < LIMIT)

    @pytest.mark.parametrize("index", range(0, 60, 7))
    def test_unscaled_blocks_equal_eigvals(self, index):
        blocks = _slot_blocks()
        a = blocks[index % len(blocks)]
        assert _decide(a) == (spectral_radius(a) < LIMIT)


class TestDegenerateBlocks:
    @settings(max_examples=100, deadline=None)
    @given(log_a=st.floats(-8.0, 8.0), log_b=st.floats(-8.0, 8.0))
    def test_oscillating_two_by_two(self, log_a, log_b):
        """``[[0, a], [b, 0]]``: the iterate swaps its two ratios every
        step, so the first bounds are final and the helper takes one
        product; the eigenvalues are ``+-sqrt(ab)``."""
        a = np.array([[0.0, 10.0**log_a], [10.0**log_b, 0.0]])
        assert _decide(a) == (spectral_radius(a) < LIMIT)
        assert CountingMatrix.products <= 1

    @pytest.mark.parametrize("rho", [0.5, 1.0 - 1e-9, 1.0 + 1e-7, 2.0])
    def test_two_by_two_at_the_limit(self, rho):
        a = np.array([[0.0, rho * 1e3], [rho * 1e-3, 0.0]])
        assert _decide(a) == (spectral_radius(a) < LIMIT)
        assert CountingMatrix.products <= 1

    @pytest.mark.parametrize(
        "a, start",
        [
            # A subnormal iterate entry: left to eigvals.
            (np.array([[0.0, 1.0], [1e-310, 0.0]]), None),
            # A warm start whose product underflows to exactly zero.
            (np.array([[0.0, 1e-200], [1e-200, 0.0]]), np.array([1.0, 1e-200])),
            # A zero row (reducible block): the iterate is not positive.
            (np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.5], [0.5, 0.5, 0.0]]), None),
            # Graded beyond double precision, nearly triangular.
            (np.tril(np.full((6, 6), 3.0), -1) + np.triu(np.full((6, 6), 1e-40), 1), None),
        ],
    )
    def test_underflow_leaves_the_verdict_to_eigvals(self, a, start):
        CountingMatrix.products = 0
        verdict, _ = _perron_feasible(a.view(CountingMatrix), LIMIT, start)
        assert CountingMatrix.products <= PERRON_MAX_STEPS
        assert verdict == (spectral_radius(a) < LIMIT)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.0, np.inf], [1.0, 0.0]]),
            np.array([[0.0, np.inf], [0.0, 0.0]]),
            np.array([[0.0, 1.0, 0.1], [1e-3, 0.0, np.inf], [0.2, 0.3, 0.0]]),
            np.array([[0.0, np.nan], [1.0, 0.0]]),
        ],
    )
    def test_non_finite_entries_are_infeasible(self, a):
        assert _decide(a) is False
