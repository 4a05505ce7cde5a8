"""Additive interference operators (Sections 3.2 and 4).

Two operators drive the paper's analysis:

* the power-independent operator
  ``I(j, i) = min(1, l_j^alpha / d(i, j)^alpha)`` built on the
  link-to-link distance ``d(i, j)`` — this is what Lemma 1 (MST
  sparsity) and Theorem 3 bound;

* the *relative interference* under a fixed power assignment,
  ``I_P(j, i) = P(j) l_i^alpha / (P(i) d_ji^alpha)`` — a set is
  P-feasible (noiseless) iff every row sum is at most ``1/beta``.

All entry computation lives in the kernel layer
(:mod:`repro.sinr.kernels`): the full additive matrix is one block
over every link of the link set's
:class:`~repro.sinr.kernels.KernelCache`, built on each call, and point
queries such as :func:`additive_interference` compute only the entries
they need instead of building ``n x n`` arrays.  The kernel cache
computes every entry with the block functions of
:mod:`repro.backend.blocks`, so these operators never depend on the
backend choice.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.links.linkset import LinkSet
from repro.sinr.feasibility import _as_power_vector
from repro.sinr.model import SINRModel
from repro.util.validation import check_distinct_links

__all__ = [
    "additive_interference",
    "additive_interference_matrix",
    "relative_interference_matrix",
    "mst_sparsity_bound",
]


def additive_interference_matrix(links: LinkSet, alpha: float) -> np.ndarray:
    """Matrix ``M[j, i] = I(j, i) = min(1, l_j^alpha / d(i, j)^alpha)``.

    The diagonal is zero by convention (``I(i, i) = 0``).  Links sharing
    a node have ``d(i, j) = 0`` and saturate at 1.  Each call builds
    the matrix afresh (one kernel block over every link); nothing keeps
    it.
    """
    return links.kernel().additive_matrix(alpha)


def additive_interference(
    links: LinkSet,
    alpha: float,
    source: Sequence[int],
    target: int,
) -> float:
    """``I(S, i) = sum_{j in S} I(j, i)`` for ``S = source``, ``i = target``.

    An ``O(|S|)`` kernel query: only the needed column entries are
    computed — never a full ``n x n`` rebuild.
    """
    src = np.asarray(source, dtype=int)
    if src.size == 0:
        return 0.0
    return links.kernel().additive_query(alpha, src, int(target))


def relative_interference_matrix(
    links: LinkSet,
    power,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Matrix ``R[j, i] = I_P(j, i) = P(j) l_i^alpha / (P(i) d_ji^alpha)``.

    Row-sum condition: active set is P-feasible (noiseless) iff
    ``R[:, i].sum() <= 1/beta`` for every active ``i``.  ``power`` and
    ``active`` are checked as :func:`~repro.sinr.feasibility.sinr_values`
    checks them.
    """
    vec = _as_power_vector(links, power)
    if active is None:
        idx = np.arange(len(links))
    else:
        idx = np.asarray(active, dtype=int)
        check_distinct_links(idx)
    return links.kernel().relative_submatrix(vec, model.alpha, idx, idx)


def mst_sparsity_bound(links: LinkSet, alpha: float) -> float:
    """Empirical check of Lemma 1 ([11, Lemma 4.2]): the maximum over
    links ``i`` of ``I(i, S+_i)`` — the interference link ``i`` induces
    on all links at least as long.  For MST link sets this is O(1)."""
    m = additive_interference_matrix(links, alpha)
    lengths = links.lengths
    worst = 0.0
    for i in range(len(links)):
        longer = np.flatnonzero(lengths >= lengths[i])
        longer = longer[longer != i]
        if longer.size:
            worst = max(worst, float(m[i, longer].sum()))
    return worst
