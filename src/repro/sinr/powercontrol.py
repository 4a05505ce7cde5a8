"""Feasibility under *some* power assignment (global power control).

With noise folded into a margin (the interference-limited assumption),
the SINR conditions for a set ``S`` read, in matrix form::

    q  >=  A q        componentwise, q > 0,

where ``q`` is the power vector and ``A`` is the normalised affectance
matrix ``A[i, j] = beta * l_i^alpha / d_ji^alpha`` (``A[i, i] = 0``).

A positive solution exists iff the spectral radius ``rho(A) < 1``
(Perron-Frobenius); the minimal-power solution with noise is the
Neumann series ``q = (I - A)^{-1} b`` with
``b_i = (1 + eps) * beta * N * l_i^alpha``.  This gives the library an
*exact* oracle for the paper's existential notion of "feasible".

:func:`is_feasible_some_power` asks the dense ``eigvals`` of
:func:`spectral_radius`: its callers (the exact DP, the lower-bound
verifiers) pose hundreds of questions of a few links each, where one
``eigvals`` costs about as much as one power-iteration step.  Large
slots are decided without eigenvalues where they can be.  For a
non-negative ``A`` and any positive ``x`` the Collatz-Wielandt bounds
``min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i`` hold, and a
short power iteration tightens them until one clears the limit
``1 - FEASIBILITY_MARGIN`` by the relative guard band
``PERRON_GUARD``.  Only a spectral radius inside the band, an
iteration that has not settled after ``PERRON_MAX_STEPS`` steps, or an
iterate graded beyond double precision falls back to ``eigvals`` — on
the same matrix, so every verdict is the ``eigvals`` verdict.
:func:`feasible_power_assignment` decides this way, and so does the
global-power repair pass
(:func:`repro.scheduling.repair.split_into_feasible_slots`), on slices
of one affectance block per color class, warm-started from each slot's
last iterate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import FEASIBILITY_MARGIN, PERRON_GUARD, PERRON_MAX_STEPS
from repro.errors import InfeasibleError
from repro.links.linkset import LinkSet
from repro.sinr.model import SINRModel
from repro.util.validation import check_distinct_links

__all__ = [
    "affectance_matrix",
    "spectral_radius",
    "is_feasible_some_power",
    "feasible_power_assignment",
]

_EPS = float(np.finfo(float).eps)


def affectance_matrix(
    links: LinkSet, model: SINRModel, active: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Normalised affectance matrix ``A`` of the active subset.

    ``A[i, j] = beta * l_i^alpha / d(s_j, r_i)^alpha`` for ``j != i``;
    row ``i`` collects how strongly each other sender hits receiver
    ``i``, normalised by link ``i``'s own path gain.

    Served by the link set's :class:`~repro.sinr.kernels.KernelCache`,
    which computes only the active subset's entries.  A repeated index
    is a :class:`~repro.errors.LinkError`.
    """
    if active is None:
        idx = np.arange(len(links))
    else:
        idx = np.asarray(active, dtype=int)
        check_distinct_links(idx)
    a = links.kernel().affectance_submatrix(model, idx, idx)
    if not np.all(np.isfinite(a)):
        raise InfeasibleError(
            "two links share a node (d_ji = 0); they can never be concurrently feasible"
        )
    return a


def spectral_radius(matrix: np.ndarray) -> float:
    """Spectral radius ``max |eigenvalue|`` of a square matrix.

    A dense ``eigvals``: ``O(k^3)`` for a ``k``-link slot, about 10 ms
    at ``k = 140`` against microseconds for a matrix-vector product.
    The power solve and the repair pass therefore call it only when the
    Collatz-Wielandt bounds cannot decide (see the module docstring).
    """
    a = np.asarray(matrix, dtype=float)
    if a.shape[0] == 0:
        return 0.0
    if a.shape[0] == 1:
        return float(abs(a[0, 0]))
    return float(np.abs(np.linalg.eigvals(a)).max())


def _perron_feasible(
    a: np.ndarray, limit: float, start: Optional[np.ndarray] = None
) -> Tuple[bool, Optional[np.ndarray]]:
    """Whether ``spectral_radius(a) < limit`` for a non-negative square
    ``a``, and the last power-iteration vector (None if there is none
    to warm-start from).

    Iterates ``x <- a x / max(a x)`` from ``start`` (all ones by
    default): *feasible* as soon as ``max_i (a x)_i / x_i`` is below
    ``limit * (1 - PERRON_GUARD)``, *infeasible* as soon as
    ``min_i (a x)_i / x_i`` reaches ``limit * (1 + PERRON_GUARD)``.
    After ``PERRON_MAX_STEPS`` steps, or on an iterate that is not
    positive at working precision (an entry that is not finite or not
    above machine epsilon times the largest), ``eigvals`` decides; a
    matrix with a non-finite entry (links sharing a node) is
    infeasible.  The precision test keeps the verdict ``eigvals``' on
    blocks graded beyond double precision, such as exponential-line
    chains, where ``eigvals`` can sit far from the true spectral radius
    and the bounds would disagree with it.

    A 2x2 block takes one step: with its zero diagonal the iterate
    swaps its two ratios every step, so the first bounds never tighten.
    """
    if a.shape[0] < 2:
        return spectral_radius(a) < limit, None
    below, above = limit * (1.0 - PERRON_GUARD), limit * (1.0 + PERRON_GUARD)
    x = np.ones(a.shape[0]) if start is None else start
    last: Optional[np.ndarray] = None
    with np.errstate(all="ignore"):
        for _ in range(1 if a.shape[0] == 2 else PERRON_MAX_STEPS):
            y = a @ x
            top = y.max()
            if not (top < np.inf and np.all(y > _EPS * top)):
                break
            ratio = y / x
            if ratio.max() < below:
                return True, y / top
            if ratio.min() >= above:
                return False, y / top
            x = last = y / top
    if not np.all(np.isfinite(a)):
        return False, None
    return spectral_radius(a) < limit, last


def is_feasible_some_power(
    links: LinkSet,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
    *,
    margin: float = FEASIBILITY_MARGIN,
) -> bool:
    """Whether the active subset is feasible under *some* power vector.

    True iff ``rho(A) < 1 - margin``.  Links sharing a node are always
    infeasible together (captured by an infinite affectance).
    """
    if active is not None and len(np.atleast_1d(active)) <= 1:
        return True
    if active is None and len(links) <= 1:
        return True
    try:
        a = affectance_matrix(links, model, active)
    except InfeasibleError:
        return False
    return spectral_radius(a) < 1.0 - margin


def feasible_power_assignment(
    links: LinkSet,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
    *,
    margin: float = FEASIBILITY_MARGIN,
) -> np.ndarray:
    """A concrete power vector rendering the active subset feasible.

    Noiseless model: the Perron eigen-structure is avoided in favour of
    the Neumann solve ``q = (I - A)^{-1} 1``, which satisfies
    ``q = A q + 1 > A q`` strictly.  With noise the right-hand side is
    the interference-limited minimum power ``(1+eps) beta N l^alpha``.

    Raises
    ------
    InfeasibleError
        If no power assignment can make the set feasible.
    """
    if active is None:
        idx = np.arange(len(links))
    else:
        idx = np.asarray(active, dtype=int)
    lengths = links.lengths[idx]
    if idx.size == 1:
        p = max(model.min_power(float(lengths[0])), 1.0)
        return np.array([p])
    a = affectance_matrix(links, model, idx)
    if not _perron_feasible(a, 1.0 - margin)[0]:
        raise InfeasibleError(
            f"set of {idx.size} links is infeasible under any power "
            f"(spectral radius {spectral_radius(a):.6f} >= 1)"
        )
    if model.noiseless:
        b = np.ones(idx.size)
    else:
        b = (1.0 + model.epsilon) * model.beta * model.noise * lengths**model.alpha
    q = np.linalg.solve(np.eye(idx.size) - a, b)
    if np.any(q <= 0):
        # Cannot happen for rho(A) < 1 with b > 0 (Neumann series of a
        # non-negative matrix), so a violation indicates conditioning
        # trouble worth surfacing loudly.
        raise InfeasibleError("power solve produced non-positive powers")
    return q
