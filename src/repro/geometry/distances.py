"""Vectorised pairwise-distance computations.

Every distance is computed from coordinate differences, never by the
Gram-matrix trick: the doubly-exponential instances in this library
span ~300 orders of magnitude and the Gram trick loses all precision
there.  The formula depends on the dimension:

* **1-D** takes ``|a - b|`` and never squares: the adversarial line
  instances use coordinates near 1e154, where squaring overflows.
* **2-D** works per axis: ``dx**2 + dy**2`` from two
  ``np.subtract.outer`` arrays, squared, added and rooted in place.
  This is bit for bit the two-term sum ``einsum`` forms, without its
  ``(n, m, 2)`` difference array, and about four times faster on the
  kernel blocks every conflict graph and repair pass evaluates.
* **d >= 3** keeps ``einsum``: it accumulates the squares in two lanes,
  ``(x0**2 + x2**2) + x1**2`` in 3-D, so a per-axis sum would round
  differently on about one entry in eight.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError

__all__ = ["pairwise_distances", "cross_distances"]


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix for ``(n, d)`` coords."""
    return cross_distances(coords, coords)


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` Euclidean distances between two coord arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise GeometryError(
            f"coordinate arrays must be 2-D and share a dimension; "
            f"got {a.shape} and {b.shape}"
        )
    if a.shape[1] == 1:
        return np.abs(a[:, 0, None] - b[None, :, 0])
    if a.shape[1] == 2:
        out = np.subtract.outer(a[:, 0], b[:, 0])
        dy = np.subtract.outer(a[:, 1], b[:, 1])
        # Squares overflow to inf silently, as they do inside einsum.
        with np.errstate(over="ignore"):
            np.multiply(out, out, out=out)
            np.multiply(dy, dy, out=dy)
            out += dy
        return np.sqrt(out, out=out)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
