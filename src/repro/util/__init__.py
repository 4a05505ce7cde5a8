"""Shared utilities: slow-growing functions, union-find, RNG helpers."""

from repro.util.mathx import (
    ilog2,
    iterated_log2,
    log_star,
    loglog,
    next_power_of_two,
    safe_log2,
)
from repro.util.ordering import (
    argsort_by_length_nondecreasing,
    argsort_by_length_nonincreasing,
)
from repro.util.rng import as_generator
from repro.util.unionfind import UnionFind
from repro.util.validation import (
    check_finite,
    check_finite_array,
    check_positive,
    check_probability,
)

__all__ = [
    "UnionFind",
    "argsort_by_length_nondecreasing",
    "argsort_by_length_nonincreasing",
    "as_generator",
    "check_finite",
    "check_finite_array",
    "check_positive",
    "check_probability",
    "ilog2",
    "iterated_log2",
    "log_star",
    "loglog",
    "next_power_of_two",
    "safe_log2",
]
