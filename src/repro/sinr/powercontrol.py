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
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.constants import FEASIBILITY_MARGIN
from repro.errors import InfeasibleError
from repro.links.linkset import LinkSet
from repro.sinr.model import SINRModel

__all__ = [
    "affectance_matrix",
    "spectral_radius",
    "is_feasible_some_power",
    "feasible_power_assignment",
]


def affectance_matrix(
    links: LinkSet, model: SINRModel, active: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Normalised affectance matrix ``A`` of the active subset.

    ``A[i, j] = beta * l_i^alpha / d(s_j, r_i)^alpha`` for ``j != i``;
    row ``i`` collects how strongly each other sender hits receiver
    ``i``, normalised by link ``i``'s own path gain.

    Served by the link set's :class:`~repro.sinr.kernels.KernelCache`,
    which computes only the active subset's entries.
    """
    if active is None:
        idx = np.arange(len(links))
    else:
        idx = np.asarray(active, dtype=int)
    a = links.kernel().affectance_submatrix(model, idx, idx)
    if not np.all(np.isfinite(a)):
        raise InfeasibleError(
            "two links share a node (d_ji = 0); they can never be concurrently feasible"
        )
    return a


def spectral_radius(matrix: np.ndarray) -> float:
    """Spectral radius ``max |eigenvalue|`` of a square matrix.

    Slot matrices are small even in 100k-link networks, so the dense
    ``eigvals`` is exact and cheap at every scale the library runs.
    """
    a = np.asarray(matrix, dtype=float)
    if a.shape[0] == 0:
        return 0.0
    if a.shape[0] == 1:
        return float(abs(a[0, 0]))
    return float(np.abs(np.linalg.eigvals(a)).max())


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
    rho = spectral_radius(a)
    if rho >= 1.0 - margin:
        raise InfeasibleError(
            f"set of {idx.size} links is infeasible under any power "
            f"(spectral radius {rho:.6f} >= 1)"
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
