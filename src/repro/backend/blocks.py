"""Kernel block math — the exact expressions every kernel entry uses.

The block builders (``*_block``) compute kernel entries restricted to
global ``rows x cols`` indices, and :func:`gap_pairs` the gap entries of
aligned ``(rows[k], cols[k])`` pairs.  Each block is byte-identical to
the matching slice of the seed's full-matrix expression (kept as the
test oracles of ``tests/oracles/dense_full.py``), so a block over every
index is the full matrix.  :class:`~repro.sinr.kernels.KernelCache`
decides when to call which (chunking); nothing here keeps state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.distances import cross_distances, min_paired_distances

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.links.linkset import LinkSet

__all__ = [
    "additive_block",
    "affectance_block",
    "gap_block",
    "gap_pairs",
    "relative_block",
    "srdist_block",
]


# ----------------------------------------------------------------------
# Geometry blocks
# ----------------------------------------------------------------------
def gap_block(links: "LinkSet", rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Gap distances ``d(i, j)`` (4-way sender/receiver minimum), zero
    where global indices coincide.

    When ``cols is rows`` the receiver-sender block is the transpose of
    the sender-receiver one, bit for bit: each distance squares the
    negated difference, so it is reused instead of recomputed.
    """
    s, r = links.senders, links.receivers
    gap = cross_distances(s[rows], s[cols])
    np.minimum(gap, cross_distances(r[rows], r[cols]), out=gap)
    sr = cross_distances(s[rows], r[cols])
    np.minimum(gap, sr, out=gap)
    np.minimum(gap, sr.T if cols is rows else cross_distances(r[rows], s[cols]), out=gap)
    gap[rows[:, None] == cols[None, :]] = 0.0
    return gap


def gap_pairs(links: "LinkSet", rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Gap distances ``d(rows[k], cols[k])`` for aligned index arrays:
    :func:`gap_block`'s entries, bit for bit (see
    :func:`~repro.geometry.distances.min_paired_distances`)."""
    s, r = links.senders, links.receivers
    # take(axis=0) gathers rows about ten times faster than s[rows].
    near_s, near_r = s.take(rows, axis=0), r.take(rows, axis=0)
    far_s, far_r = s.take(cols, axis=0), r.take(cols, axis=0)
    return min_paired_distances((near_s, far_s), (near_r, far_r), (near_s, far_r), (near_r, far_s))


def srdist_block(links: "LinkSet", rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sender-receiver distances ``D[j, i] = d(s_j, r_i)``."""
    return cross_distances(links.senders[rows], links.receivers[cols])


# ----------------------------------------------------------------------
# Additive kernel  I[j, i] = min(1, l_j^alpha / d(i, j)^alpha)
# ----------------------------------------------------------------------
def additive_block(
    links: "LinkSet", alpha: float, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Additive kernel restricted to ``rows x cols``."""
    gap = gap_block(links, rows, cols)
    lengths = links.lengths
    with np.errstate(divide="ignore", over="ignore"):
        ratio = (lengths[rows][:, None] / gap) ** alpha
    m = np.minimum(1.0, ratio)
    m[rows[:, None] == cols[None, :]] = 0.0
    return m


# ----------------------------------------------------------------------
# Relative kernel  R[j, i] = (P_j/P_i) (l_i/d_ji)^alpha
# ----------------------------------------------------------------------
#: Entries per row tile of :func:`relative_block`.
RELATIVE_TILE_ENTRIES = 1 << 16


def relative_block(
    links: "LinkSet",
    vec: np.ndarray,
    alpha: float,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Relative kernel restricted to ``rows x cols``.

    Filled into one ``rows x cols`` output a tile of about
    :data:`RELATIVE_TILE_ENTRIES` entries (whole rows) at a time, so the
    transient is one tile rather than several block-sized temporaries.
    Each entry is ``(P_j / P_i) * (l_i / d_ji) ** alpha`` with the same
    operands and operations in the same order as the one-shot
    expression, so the block is equal to it bit for bit (``**=`` takes
    the same scalar-exponent fast paths as ``**``).
    """
    out = np.empty((rows.size, cols.size))
    senders, receivers = links.senders[rows], links.receivers[cols]
    l_cols, p_rows, p_cols = links.lengths[cols], vec[rows][:, None], vec[cols]
    step = max(1, RELATIVE_TILE_ENTRIES // max(1, cols.size))
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, rows.size, step):
            stop = start + step
            ratio = cross_distances(senders[start:stop], receivers)
            np.divide(l_cols, ratio, out=ratio)
            ratio **= alpha
            tile = out[start:stop]
            np.divide(p_rows[start:stop], p_cols, out=tile)
            tile *= ratio
            tile[rows[start:stop, None] == cols] = 0.0
    return out


# ----------------------------------------------------------------------
# Affectance kernel  A[i, j] = beta * l_i^alpha / d_ji^alpha
# ----------------------------------------------------------------------
def affectance_block(
    links: "LinkSet",
    alpha: float,
    beta: float,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Affectance restricted to ``rows`` (receivers) x ``cols`` (senders)."""
    dist = srdist_block(links, cols, rows)  # [j, i]
    lengths = links.lengths
    with np.errstate(divide="ignore", over="ignore"):
        ratio = (lengths[rows][None, :] / dist) ** alpha  # [j, i]
    a = beta * ratio.T  # [i, j]
    a[rows[:, None] == cols[None, :]] = 0.0
    return a
