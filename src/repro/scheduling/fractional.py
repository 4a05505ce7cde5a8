"""Optimal fractional aggregation rate (multicoloring), §4.

An optimal coloring schedule need not be an optimal aggregation
schedule: arbitrary periodic sequences of feasible sets (fractional
colorings) can achieve strictly better rates — the paper's example is
the 5-cycle (rate 2/5 vs 1/3).  For small instances the true optimum
is a linear program over the maximal feasible sets:

    maximise   rho
    subject to sum_{S : i in S} x_S >= rho      for every link i,
               sum_S x_S = 1,   x >= 0.

This module enumerates the maximal feasible sets (via the downward-
closed feasibility table) and solves the LP exactly, without scipy:
``rho = 1 / chi_f`` for the fractional chromatic number ``chi_f``, the
optimum of the packing LP ``max 1.w`` subject to ``M^T w <= 1``,
``w >= 0`` (``M`` the links x sets incidence).  Its origin is feasible,
so a dense tableau simplex with Bland's rule solves it without a first
phase, and the optimal set weights are its dual: the reduced costs of
the slack columns, normalised to sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.scheduling.exact import MAX_EXACT_LINKS, feasible_masks
from repro.sinr.model import SINRModel

__all__ = ["optimal_fractional_rate", "FractionalRateResult"]


@dataclass(frozen=True)
class FractionalRateResult:
    """Outcome of the fractional-rate LP."""

    rate: float
    sets: Tuple[Tuple[int, ...], ...]
    weights: Tuple[float, ...]

    def support(self) -> List[Tuple[Tuple[int, ...], float]]:
        """The feasible sets with non-negligible weight."""
        return [
            (s, w) for s, w in zip(self.sets, self.weights) if w > 1e-9
        ]


def _maximal_feasible_sets(table: np.ndarray, n: int) -> List[int]:
    """Masks of feasible sets with no feasible strict superset."""
    maximal = []
    for mask in range(1, 1 << n):
        if not table[mask]:
            continue
        is_max = True
        for i in range(n):
            if not mask >> i & 1 and table[mask | (1 << i)]:
                is_max = False
                break
        if is_max:
            maximal.append(mask)
    return maximal


def optimal_fractional_rate(
    links: LinkSet, model: SINRModel, power=None
) -> FractionalRateResult:
    """The exact optimal aggregation rate over *arbitrary* periodic
    schedules (not just colorings) of a small link set.

    Raises :class:`ConfigurationError` beyond ``MAX_EXACT_LINKS`` links.
    """
    n = len(links)
    if n > MAX_EXACT_LINKS:
        raise ConfigurationError(
            f"fractional rate limited to {MAX_EXACT_LINKS} links, got {n}"
        )
    table = feasible_masks(links, model, power)
    masks = _maximal_feasible_sets(table, n)
    sets = [tuple(i for i in range(n) if mask >> i & 1) for mask in masks]

    incidence = np.zeros((n, len(sets)))
    for col, members in enumerate(sets):
        incidence[list(members), col] = 1.0
    packing, cover = _packing_lp(incidence)
    return FractionalRateResult(
        rate=1.0 / packing,
        sets=tuple(sets),
        weights=tuple(float(v) for v in cover / cover.sum()),
    )


#: Entries within this of zero count as zero in the simplex's sign and
#: ratio tests (the tableau starts 0/1 and stays small rationals).
_SIMPLEX_TOL = 1e-9


def _packing_lp(incidence: np.ndarray) -> Tuple[float, np.ndarray]:
    """``max 1.w`` subject to ``incidence^T w <= 1``, ``w >= 0``.

    ``incidence`` is the links x sets 0/1 matrix, every link in some
    set.  A dense tableau simplex from the origin (the slack basis),
    entering and leaving by Bland's rule, so it cannot cycle.  Returns
    the optimum and the optimal dual ``y >= 0`` (``incidence @ y >= 1``,
    ``sum(y)`` the same optimum): the reduced costs of the slack columns.
    """
    n, m = incidence.shape
    # One row per set, then the objective row; columns w, slacks, rhs.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = incidence.T
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = 1.0
    tableau[m, :n] = -1.0
    basis = np.arange(n, n + m)
    while True:
        entering = np.flatnonzero(tableau[m, :-1] < -_SIMPLEX_TOL)
        if entering.size == 0:
            break
        col = int(entering[0])
        column = tableau[:m, col]
        rows = np.flatnonzero(column > _SIMPLEX_TOL)
        ratios = tableau[rows, -1] / column[rows]
        tied = rows[ratios <= ratios.min() + _SIMPLEX_TOL]
        row = int(tied[np.argmin(basis[tied])])
        tableau[row] /= tableau[row, col]
        pivot = tableau[row]
        others = np.arange(m + 1) != row
        tableau[others] -= tableau[others, col][:, None] * pivot
        basis[row] = col
    # Reduced costs end >= -_SIMPLEX_TOL; a rounding residue is a zero.
    return float(tableau[m, -1]), np.maximum(tableau[m, n : n + m], 0.0)
