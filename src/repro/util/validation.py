"""Small argument-validation helpers shared across subpackages."""

from __future__ import annotations

import numbers

import numpy as np

from repro.errors import ConfigurationError, LinkError

__all__ = [
    "check_distinct_links",
    "check_finite_array",
    "check_int_min",
    "check_positive",
    "check_probability",
]


def check_int_min(name: str, value: object, *, minimum: int) -> int:
    """``value`` as an ``int``; :class:`ConfigurationError` unless it is
    an integer (numpy integers included, ``bool`` not) of at least
    ``minimum``.  Floats and strings are rejected, never coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative if not strict)."""
    value = float(value)
    if strict and value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: float, *, open_interval: bool = False) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if open)."""
    value = float(value)
    if open_interval:
        if not 0.0 < value < 1.0:
            raise ConfigurationError(f"{name} must lie strictly in (0, 1), got {value}")
    elif not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_finite_array(name: str, array: np.ndarray) -> np.ndarray:
    """Validate that every entry of ``array`` is finite."""
    array = np.asarray(array, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return array


def check_distinct_links(indices: np.ndarray) -> None:
    """:class:`LinkError` naming the first link index that repeats an
    earlier one.  A link is active at most once in a set: the kernels
    zero every entry whose row and column indices coincide, so a second
    copy would count as a link that never interferes with the first.

    A sort, not ``np.unique``: the first ``np.unique`` call imports
    ``numpy.ma``, about 1.5 MiB of resident memory."""
    ordered = np.sort(indices)
    if not np.any(ordered[1:] == ordered[:-1]):
        return
    seen: set[int] = set()
    for i in indices.tolist():
        if i in seen:
            raise LinkError(f"link index {i} is repeated in the active set")
        seen.add(i)
