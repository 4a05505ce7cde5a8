"""The ``einsum`` distance formula: the reference for
:func:`repro.geometry.distances.cross_distances`.

This is ``cross_distances`` as it was before the 2-D branch went per
axis, kept verbatim: ``|a - b|`` in 1-D, otherwise the squared
differences of an ``(n, m, d)`` array reduced by ``einsum``.  The
library keeps the ``einsum`` reduction for d >= 3 only;
``tests/test_geometry_diversity.py`` checks every dimension against
this formula bit for bit, and ``tests/oracles/conflict_allpairs.py``
builds its full gap matrix with it.
"""

from __future__ import annotations

import numpy as np


def einsum_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` Euclidean distances between two coord arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] == 1:
        return np.abs(a[:, 0, None] - b[None, :, 0])
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
