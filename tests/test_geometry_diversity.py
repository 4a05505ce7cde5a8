"""Tests for length diversity and distance helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.distances import einsum_distances
from repro.errors import GeometryError
from repro.geometry.distances import (
    cross_distances,
    min_paired_distances,
    pairwise_distances,
)
from repro.geometry.diversity import (
    length_diversity,
    link_length_diversity,
    min_max_distances,
)
from repro.geometry.point import PointSet


class TestPairwiseDistances:
    def test_matches_manual(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        dm = pairwise_distances(coords)
        assert dm[0, 1] == pytest.approx(5.0)
        assert dm[0, 2] == pytest.approx(1.0)

    def test_huge_magnitudes_retain_precision(self):
        # The Gram-matrix trick would collapse here; differences don't.
        coords = np.array([[0.0], [1e150], [1e150 + 1e140]])
        dm = pairwise_distances(coords)
        # Input representation limits accuracy to ~1e-7 relative here;
        # the Gram trick would return 0 or NaN outright.
        assert dm[1, 2] == pytest.approx(1e140, rel=1e-6)

    def test_rejects_1d(self):
        with pytest.raises(GeometryError):
            pairwise_distances(np.array([1.0, 2.0]))


class TestCrossDistances:
    def test_shape_and_values(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0], [0.0, 2.0]])
        d = cross_distances(a, b)
        assert d.shape == (1, 2)
        assert d[0, 0] == pytest.approx(5.0)
        assert d[0, 1] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            cross_distances(np.zeros((1, 2)), np.zeros((1, 3)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3]),
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e6, 1e150, 1e155]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit_the_einsum_formula(self, seed, dim, shape, scale):
        """1-D and 2-D work per axis, d >= 3 stays on ``einsum``: every
        entry is the oracle's, underflow and overflow included."""
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(shape[0], dim)) * scale
        b = gen.normal(size=(shape[1], dim)) * scale
        a[gen.random(shape[0]) < 0.2] = b[0]  # coincident points: exact zeros
        assert cross_distances(a, b).tobytes() == einsum_distances(a, b).tobytes()
        assert pairwise_distances(a).tobytes() == einsum_distances(a, a).tobytes()

    def test_overflowing_squares_are_silent_infinities(self):
        a = np.array([[0.0, 0.0], [1e200, -1e200]])
        with np.errstate(all="raise"):
            d = cross_distances(a, a)
        assert d.tobytes() == einsum_distances(a, a).tobytes()
        assert d[0, 1] == np.inf


class TestMinPairedDistances:
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3]),
        scale=st.sampled_from([1e-150, 1.0, 1e6, 1e150, 1e155]),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_for_bit_the_minimum_of_cross_distances(self, seed, dim, scale):
        """Squared distances are compared before one root, and the
        result is the minimum of the cross-distance entries, underflow,
        overflow and exact zeros included."""
        gen = np.random.default_rng(seed)
        points = [gen.normal(size=(9, dim)) * scale for _ in range(4)]
        points[1][gen.random(9) < 0.3] = points[0][0]  # coincident points
        rows, cols = np.nonzero(np.ones((9, 9), dtype=bool))
        pairs = [(points[0], points[1]), (points[2], points[3]), (points[0], points[3])]
        got = min_paired_distances(*((a[rows], b[cols]) for a, b in pairs))
        want = np.minimum.reduce([cross_distances(a, b) for a, b in pairs]).ravel()
        assert got.tobytes() == want.tobytes()

    def test_rejects_misaligned_pairs(self):
        with pytest.raises(GeometryError):
            min_paired_distances((np.zeros((2, 2)), np.zeros((3, 2))))
        with pytest.raises(GeometryError):
            min_paired_distances((np.zeros((2, 2)), np.zeros((2, 3))))


class TestDiversity:
    def test_min_max(self):
        ps = PointSet([0.0, 1.0, 4.0])
        dmin, dmax = min_max_distances(ps)
        assert dmin == pytest.approx(1.0)
        assert dmax == pytest.approx(4.0)

    def test_length_diversity(self):
        ps = PointSet([0.0, 1.0, 4.0])
        assert length_diversity(ps) == pytest.approx(4.0)

    def test_equilateral_diversity_one(self):
        h = np.sqrt(3.0) / 2.0
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        assert length_diversity(ps) == pytest.approx(1.0)

    def test_needs_two_points(self):
        with pytest.raises(GeometryError):
            length_diversity(PointSet([[0.0, 0.0]]))

    def test_scale_invariant(self):
        ps = PointSet([[0.0, 0.0], [1.0, 0.0], [5.0, 2.0]])
        assert length_diversity(ps.scaled(13.0)) == pytest.approx(length_diversity(ps))


class TestLinkLengthDiversity:
    def test_basic(self):
        assert link_length_diversity(np.array([1.0, 2.0, 8.0])) == pytest.approx(8.0)

    def test_rejects_empty(self):
        with pytest.raises(GeometryError):
            link_length_diversity(np.array([]))

    def test_rejects_nonpositive(self):
        with pytest.raises(GeometryError):
            link_length_diversity(np.array([0.0, 1.0]))
