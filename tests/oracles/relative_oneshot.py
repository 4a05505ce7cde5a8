"""The one-shot relative kernel block: the reference for
:func:`repro.backend.blocks.relative_block`.

This is ``relative_block`` as it was before it filled its output one
row tile at a time, kept verbatim: the whole ``rows x cols`` block in
one numpy expression, with several block-sized temporaries alive at
once.  ``tests/test_backend.py`` checks the tiled block against it bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro.backend.blocks import srdist_block


def relative_block(links, vec: np.ndarray, alpha: float, rows: np.ndarray, cols: np.ndarray):
    """``R[j, i] = (P_j / P_i) (l_i / d_ji)^alpha`` restricted to ``rows x cols``."""
    dist = srdist_block(links, rows, cols)
    lengths = links.lengths
    with np.errstate(divide="ignore", over="ignore"):
        rel = (vec[rows][:, None] / vec[cols][None, :]) * (
            lengths[cols][None, :] / dist
        ) ** alpha
    rel[rows[:, None] == cols[None, :]] = 0.0
    return rel
