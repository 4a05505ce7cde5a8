"""Tests for RNG plumbing, orderings and validation helpers."""

import re

import numpy as np
import pytest

from repro.errors import ConfigurationError, LinkError
from repro.util.ordering import (
    argsort_by_length_nondecreasing,
    argsort_by_length_nonincreasing,
)
from repro.util.rng import as_generator, spawn
from repro.util.validation import (
    check_finite,
    check_finite_array,
    check_link_indices,
    check_positive,
    check_probability,
)


class TestAsGenerator:
    def test_seed_reproducible(self):
        a = as_generator(7).uniform(size=5)
        b = as_generator(7).uniform(size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_spawn_children_independent(self):
        kids = spawn(0, 3)
        assert len(kids) == 3
        draws = [k.uniform() for k in kids]
        assert len(set(draws)) == 3  # all differ


class TestOrdering:
    def test_nonincreasing(self):
        lengths = np.array([1.0, 5.0, 3.0])
        assert argsort_by_length_nonincreasing(lengths).tolist() == [1, 2, 0]

    def test_nondecreasing(self):
        lengths = np.array([1.0, 5.0, 3.0])
        assert argsort_by_length_nondecreasing(lengths).tolist() == [0, 2, 1]

    def test_stable_on_ties(self):
        lengths = np.array([2.0, 2.0, 2.0])
        assert argsort_by_length_nonincreasing(lengths).tolist() == [0, 1, 2]
        assert argsort_by_length_nondecreasing(lengths).tolist() == [0, 1, 2]

    def test_orders_are_reverses_modulo_ties(self):
        rng = np.random.default_rng(0)
        lengths = rng.uniform(size=20)
        up = argsort_by_length_nondecreasing(lengths)
        down = argsort_by_length_nonincreasing(lengths)
        assert up.tolist() == down.tolist()[::-1]


class TestValidation:
    def test_check_positive_strict(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ConfigurationError):
            check_positive("x", 0.0)

    def test_check_positive_nonstrict(self):
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ConfigurationError):
            check_positive("x", -1.0, strict=False)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_check_positive_rejects_non_finite(self, value, strict):
        """NaN fails both range comparisons, so it used to come back."""
        with pytest.raises(ConfigurationError, match="x must be finite"):
            check_positive("x", value, strict=strict)

    def test_check_finite(self):
        assert check_finite("x", -2) == -2.0
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="x must be finite"):
                check_finite("x", value)

    @pytest.mark.parametrize("value", ["5", "x", None, True, np.bool_(False), [1.0]])
    @pytest.mark.parametrize(
        "check", [check_finite, check_positive, check_probability], ids=lambda c: c.__name__
    )
    def test_non_numbers_rejected_by_name(self, check, value):
        """A string, None or a list used to end in a bare TypeError or
        ValueError from float(); a numeric string or a bool came back
        as a number."""
        with pytest.raises(ConfigurationError, match=r"^x must be a real number, got "):
            check("x", value)

    def test_numpy_scalars_are_numbers(self):
        assert check_finite("x", np.float32(0.5)) == 0.5
        assert check_positive("x", np.int64(3)) == 3.0

    def test_check_probability_closed(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.1)

    def test_check_probability_open(self):
        assert check_probability("p", 0.5, open_interval=True) == 0.5
        with pytest.raises(ConfigurationError):
            check_probability("p", 0.0, open_interval=True)

    def test_check_finite_array(self):
        arr = check_finite_array("a", [1.0, 2.0])
        assert arr.dtype == float
        with pytest.raises(ConfigurationError):
            check_finite_array("a", [1.0, np.inf])


class TestLinkIndices:
    """Link indices are integers: a bool, a fractional or non-finite
    float or a non-number is a :class:`LinkError` naming the first one,
    never truncated to a link."""

    @pytest.mark.parametrize(
        "indices,bad",
        [
            ([0.7, 1.2, 2.9], "0.7"),
            ([1, 2.5], "2.5"),
            ([0, float("nan")], "nan"),
            ([0, float("inf")], "inf"),
            ([True, False], "True"),
            ([1, True], "True"),  # numpy would turn it into link 1
            ((0, np.False_), "np.False_"),
            (np.array([True, True, False]), "True"),
            (True, "True"),
            ([0, "1"], "'1'"),
            ([0, None], "None"),
            (np.array([1 + 0j]), r"\(1\+0j\)"),
        ],
    )
    def test_non_integers_are_named(self, indices, bad):
        with pytest.raises(LinkError, match=rf"^link index {bad} is not an integer$"):
            check_link_indices(indices, 5)

    @pytest.mark.parametrize(
        "indices,want",
        [
            ([3, 0], [3, 0]),
            (np.array([4, 1], dtype=np.int32), [4, 1]),
            (np.array([2], dtype=np.uint8), [2]),
            ([1.0, 4.0], [1, 4]),
            (np.array([0, 3.0], dtype=object), [0, 3]),
            (np.int64(2), [2]),
            (range(3), [0, 1, 2]),
            ([], []),
            (np.array([], dtype=bool), []),
        ],
    )
    def test_integers_pass_as_an_int_array(self, indices, want):
        idx = check_link_indices(indices, 5)
        assert idx.dtype == int and idx.tolist() == want

    @pytest.mark.parametrize("bad", [-1, 5, 7.0, 1e300])
    def test_out_of_range_is_named(self, bad):
        message = rf"^link index {re.escape(repr(bad))} is out of range for 5 links$"
        with pytest.raises(LinkError, match=message):
            check_link_indices([0, bad], 5)
