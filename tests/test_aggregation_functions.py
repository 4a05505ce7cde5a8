"""Tests for aggregation functions (monoid structure, array form)."""

import struct

import numpy as np
import pytest

from repro.aggregation.functions import (
    COUNT,
    MAX,
    MEAN,
    MIN,
    SUM,
    AggregationFunction,
    threshold_count,
)
from repro.errors import SimulationError

BUILTINS = [SUM, MAX, MIN, COUNT, MEAN, threshold_count(0.0)]


class TestReferenceEvaluation:
    def test_sum(self):
        assert SUM.aggregate([1.0, 2.0, 3.5]) == pytest.approx(6.5)

    def test_max_min(self):
        data = [3.0, -1.0, 7.0]
        assert MAX.aggregate(data) == 7.0
        assert MIN.aggregate(data) == -1.0

    def test_count(self):
        assert COUNT.aggregate([5.0, 5.0, 5.0]) == 3

    def test_mean(self):
        assert MEAN.aggregate([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_threshold_count(self):
        f = threshold_count(2.5)
        assert f.aggregate([1.0, 2.0, 3.0, 4.0]) == 2

    def test_empty_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            SUM.aggregate([])


class TestMonoidLaws:
    @pytest.mark.parametrize("func", [SUM, MAX, MIN, COUNT, MEAN], ids=lambda f: f.name)
    def test_associative_commutative(self, func: AggregationFunction):
        rng = np.random.default_rng(0)
        values = [func.lift(float(v)) for v in rng.uniform(-10, 10, size=5)]
        a, b, c = values[0], values[1], values[2]
        assert func.combine(func.combine(a, b), c) == func.combine(
            a, func.combine(b, c)
        )
        assert func.combine(a, b) == func.combine(b, a)

    @pytest.mark.parametrize("func", [SUM, MAX, MIN, COUNT, MEAN], ids=lambda f: f.name)
    def test_tree_order_independence(self, func: AggregationFunction):
        """In-network aggregation in any combination order must match
        the centralised reference — the property the simulator relies on."""
        rng = np.random.default_rng(1)
        readings = rng.uniform(0, 100, size=9).tolist()
        reference = func.aggregate(readings)
        # Combine as a skewed tree.
        acc = func.lift(readings[0])
        for r in readings[1:]:
            acc = func.combine(acc, func.lift(r))
        skewed = func.finalize(acc)
        # Combine as a balanced tree.
        layer = [func.lift(r) for r in readings]
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(func.combine(layer[i], layer[i + 1]))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        balanced = func.finalize(layer[0])
        assert skewed == pytest.approx(reference)
        assert balanced == pytest.approx(reference)


def _bits(values):
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values]


class TestArrayForm:
    @pytest.mark.parametrize("func", BUILTINS, ids=lambda f: f.name)
    def test_aggregate_frames_equals_aggregate(self, func: AggregationFunction):
        # Wide magnitudes make the summation order visible, and signed
        # zeros make max/min's tie rule visible: a pairwise reduce or
        # np.maximum would differ from the left fold in some frame.
        rng = np.random.default_rng(2)
        readings = rng.standard_normal((40, 100)) * 10.0 ** rng.integers(-3, 17, (40, 100))
        zeros = rng.choice([0.0, -0.0], size=(10, 100))
        for rows in (readings, zeros, np.vstack([zeros, readings])):
            want = [func.aggregate(row) for row in rows.tolist()]
            assert _bits(func.aggregate_frames(rows)) == _bits(want)

    def test_aggregate_frames_without_array_form(self):
        minus = AggregationFunction("minus", lift=float, combine=lambda a, b: a - b)
        rows = np.arange(12.0).reshape(3, 4)
        assert minus.aggregate_frames(rows) == [minus.aggregate(r) for r in rows.tolist()]

    def test_half_an_array_form_rejected(self):
        with pytest.raises(SimulationError, match="both"):
            AggregationFunction("sum", lift=float, combine=lambda a, b: a + b, combine_array=np.add)

    def test_threshold_compared_as_float(self):
        # 2**53 + 3 is no float; compared as one (2**53 + 4), the scalar
        # and array forms agree on the reading 2**53 + 4.
        f = threshold_count(2**53 + 3)
        reading = float(2**53 + 4)
        assert f.lift(reading) == 0
        assert f.aggregate_frames(np.array([[reading]])) == [0]
