"""Small argument-validation helpers shared across subpackages."""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import ConfigurationError, LinkError

__all__ = [
    "check_distinct_links",
    "check_finite",
    "check_finite_array",
    "check_int_min",
    "check_link_indices",
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


def check_finite(name: str, value: object) -> float:
    """``value`` as a ``float``; :class:`ConfigurationError` naming
    ``name`` unless it is a real number (numpy scalars included) that is
    neither NaN nor infinite.  ``bool``, strings and ``None`` are
    rejected, never coerced; NaN fails every comparison, so a range
    check alone lets it through."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {number}")
    return number


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is finite and positive (or non-negative
    if not strict)."""
    value = check_finite(name, value)
    if strict and value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: float, *, open_interval: bool = False) -> float:
    """Validate that ``value`` is a real number in [0, 1] (or (0, 1) if
    open)."""
    value = check_finite(name, value)
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


_BOOLS = {bool, np.bool_}


def check_link_indices(indices: object, n: int) -> np.ndarray:
    """``indices`` as a 1-D int array; a :class:`LinkError` names the
    first entry that is not an integer (a bool, a non-integral float or
    a non-number), else the first outside ``[0, n)``, instead of
    truncating it, letting it wrap around or surfacing as a bare numpy
    ``IndexError``.  Integer dtypes, integral floats and empty
    sequences pass.

    numpy turns a bool among Python ints into an int, so a list or
    tuple is also scanned for bools by type; an array is not."""
    raw = np.atleast_1d(np.asarray(indices))
    sequence = isinstance(indices, (list, tuple))
    if sequence and _BOOLS & set(map(type, indices)):
        bad = next(i for i in indices if type(i) in _BOOLS)
        raise LinkError(f"link index {bad!r} is not an integer")
    if raw.dtype.kind not in "iuf":
        # numpy turns the numbers beside a string into strings too.
        for value in indices if sequence else raw.tolist():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise LinkError(f"link index {value!r} is not an integer")
        raw = raw.astype(float)
    if raw.dtype.kind == "f":
        wrong = ~np.isfinite(raw) | (raw != np.trunc(raw))
        if wrong.any():
            raise LinkError(f"link index {raw[wrong][0].item()!r} is not an integer")
        # Before the cast, which is undefined past the int64 range.
        outside = (raw < 0) | (raw >= n)
        if outside.any():
            bad = raw[outside][0].item()
            raise LinkError(f"link index {bad!r} is out of range for {n} links")
    idx = raw.astype(int, copy=False)
    # Viewed unsigned, a negative index is huge: one reduction checks both ends.
    unsigned = idx.view(np.uint64)
    if idx.size and unsigned.max() >= n:
        raise LinkError(f"link index {raw[unsigned >= n][0]} is out of range for {n} links")
    return idx


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
