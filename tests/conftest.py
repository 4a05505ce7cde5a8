"""Shared fixtures for the test suite (and hypothesis profiles).

Hypothesis profiles — select with ``HYPOTHESIS_PROFILE=<name>``:

* ``dev`` (default) — the library defaults; individual tests pin their
  own ``max_examples`` where generation is expensive.
* ``ci`` — deeper search (more examples, no deadline) for scheduled CI
  runs.
* ``quick`` — a handful of examples per property, for fast local
  iteration.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro import (
    AggregationTree,
    LinkSet,
    PointSet,
    SINRModel,
    uniform_square,
)

settings.register_profile("dev", settings.default)
settings.register_profile("ci", max_examples=200, deadline=None)
settings.register_profile("quick", max_examples=10, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def model() -> SINRModel:
    """Default noiseless physical model (alpha=3, beta=1)."""
    return SINRModel(alpha=3.0, beta=1.0)


@pytest.fixture
def noisy_model() -> SINRModel:
    """A model with ambient noise, for interference-limited checks."""
    return SINRModel(alpha=3.0, beta=1.0, noise=1e-6, epsilon=0.5)


@pytest.fixture
def square_points() -> PointSet:
    """40 uniform points in the unit square (seeded)."""
    return uniform_square(40, rng=123)


@pytest.fixture
def square_tree(square_points: PointSet) -> AggregationTree:
    """MST of the random square, rooted at node 0."""
    return AggregationTree.mst(square_points, sink=0)


@pytest.fixture
def square_links(square_tree: AggregationTree) -> LinkSet:
    """Convergecast links of the random square MST."""
    return square_tree.links()


@pytest.fixture
def two_parallel_links() -> LinkSet:
    """Two well-separated unit links (feasible together under any
    sensible parameters)."""
    return LinkSet(
        senders=np.array([[0.0, 0.0], [0.0, 100.0]]),
        receivers=np.array([[1.0, 0.0], [1.0, 100.0]]),
    )


@pytest.fixture
def three_far_links() -> LinkSet:
    """Three parallel unit links 100 apart: any subset is feasible."""
    xs = np.array([0.0, 100.0, 200.0])
    return LinkSet(
        senders=np.stack([xs, np.zeros(3)], axis=1),
        receivers=np.stack([xs, np.ones(3)], axis=1),
    )


@pytest.fixture
def two_close_links() -> LinkSet:
    """Two crossing unit links whose senders sit right next to each
    other's receivers: infeasible under *any* power assignment for
    beta >= 1 (the affectance product exceeds one)."""
    return LinkSet(
        senders=np.array([[0.0, 0.0], [1.2, 0.0]]),
        receivers=np.array([[1.0, 0.0], [0.2, 0.0]]),
    )


@pytest.fixture
def line_points_small() -> PointSet:
    """Five collinear points with growing gaps."""
    return PointSet(np.array([0.0, 1.0, 3.0, 7.0, 15.0]).reshape(-1, 1))
