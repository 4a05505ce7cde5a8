"""Vectorised pairwise-distance computations.

Every distance is computed from coordinate differences, never by the
Gram-matrix trick: the doubly-exponential instances in this library
span ~300 orders of magnitude and the Gram trick loses all precision
there.  The formula depends on the dimension:

* **1-D** takes ``|a - b|`` and never squares: the adversarial line
  instances use coordinates near 1e154, where squaring overflows.
* **2-D** works per axis: ``dx**2 + dy**2`` from two per-axis
  difference arrays, squared, added and rooted in place.  This is bit
  for bit the two-term sum ``einsum`` forms, without its ``(n, m, 2)``
  difference array, and about four times faster on the kernel blocks
  every conflict graph and repair pass evaluates.
* **d >= 3** keeps ``einsum``: it accumulates the squares in two lanes,
  ``(x0**2 + x2**2) + x1**2`` in 3-D, so a per-axis sum would round
  differently on about one entry in eight.

One private helper holds that choice for both forms: the
``(n, m)`` matrix of :func:`cross_distances` and the aligned pairs of
:func:`min_paired_distances`, whose entries are therefore equal bit
for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GeometryError

__all__ = ["pairwise_distances", "cross_distances", "min_paired_distances"]


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix for ``(n, d)`` coords."""
    return cross_distances(coords, coords)


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` Euclidean distances between two coord arrays."""
    a, b = _coordinates(a, b)
    return _root(_keys(a[:, None, :], b[None, :, :]), a.shape[1])


def min_paired_distances(*pairs: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``min((a, b) in pairs) |a[k] - b[k]|`` for aligned ``(m, d)``
    coordinate arrays: bit for bit the minimum of the matching
    :func:`cross_distances` entries.

    The minimum is taken over the squared distances before one
    ``sqrt``: ``sqrt`` is monotone and correctly rounded, so the root
    of the minimum is the minimum of the roots.
    """
    coords = [_coordinates(a, b, paired=True) for a, b in pairs]
    best = _keys(*coords[0])
    for a, b in coords[1:]:
        np.minimum(best, _keys(a, b), out=best)
    return _root(best, coords[0][0].shape[1])


def _coordinates(a, b, paired: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as float ``(n, d)`` arrays of one dimension (and,
    when ``paired``, one length)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1] or (paired and a.shape != b.shape):
        raise GeometryError(
            f"coordinate arrays must be 2-D and share a dimension"
            f"{' and a length' if paired else ''}; got {a.shape} and {b.shape}"
        )
    return a, b


def _keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the broadcast coordinate arrays ``a`` and ``b``
    (coordinates on the last axis): squared, except in 1-D."""
    if a.shape[-1] == 1:
        return np.abs(a[..., 0] - b[..., 0])
    if a.shape[-1] == 2:
        out = a[..., 0] - b[..., 0]
        dy = a[..., 1] - b[..., 1]
        # Squares overflow to inf silently, as they do inside einsum.
        with np.errstate(over="ignore"):
            np.multiply(out, out, out=out)
            np.multiply(dy, dy, out=dy)
            out += dy
        return out
    diff = a - b
    return np.einsum("...k,...k->...", diff, diff)


def _root(keys: np.ndarray, dim: int) -> np.ndarray:
    """The distances behind :func:`_keys`' output in ``dim``
    dimensions, rooted in place."""
    return keys if dim == 1 else np.sqrt(keys, out=keys)
