"""The full-matrix kernel builders: the references for the block
functions of :mod:`repro.backend.blocks`.

These are the seed's dense expressions, ``additive_full`` and
``affectance_full`` as ``backend/blocks.py`` kept them, verbatim: the
whole ``n x n`` additive kernel from ``link_distances()`` and the whole
normalised affectance from ``sender_receiver_distances()``.  The kernel
layer keeps no full matrix, so nothing in the library calls them;
``tests/test_backend.py`` checks every block against the matching slice
of these bit for bit, and ``tests/test_sinr_kernels.py`` checks the
explicit ``additive_matrix`` against ``additive_full``.
"""

from __future__ import annotations

import numpy as np

from repro.links.linkset import LinkSet


def additive_full(links: "LinkSet", alpha: float) -> np.ndarray:
    """Dense additive kernel."""
    gap = links.link_distances()
    lengths = links.lengths
    with np.errstate(divide="ignore", over="ignore"):
        ratio = (lengths[:, None] / gap) ** alpha
    m = np.minimum(1.0, ratio)
    np.fill_diagonal(m, 0.0)
    return m


def affectance_full(links: "LinkSet", alpha: float, beta: float) -> np.ndarray:
    """Dense normalised affectance."""
    dist = links.sender_receiver_distances()
    with np.errstate(divide="ignore", over="ignore"):
        ratio = (links.lengths[None, :] / dist) ** alpha
    a = beta * ratio.T
    np.fill_diagonal(a, 0.0)
    return a
