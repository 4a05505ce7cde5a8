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
closed feasibility table) and solves the LP with scipy when available,
falling back to a combinatorial bound otherwise.
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

    try:
        from scipy.optimize import linprog  # type: ignore
    except ImportError:  # pragma: no cover - only CI's scipy-free 3.10 leg
        # Fallback: the best single coloring built greedily from the
        # maximal sets (a valid lower bound on the true rate).
        uncovered = set(range(n))
        chosen = []
        for mask, s in sorted(zip(masks, sets), key=lambda t: -len(t[1])):
            if uncovered & set(s):
                chosen.append(s)
                uncovered -= set(s)
        rate = 1.0 / len(chosen)
        return FractionalRateResult(
            rate=rate,
            sets=tuple(chosen),
            weights=tuple(1.0 / len(chosen) for _ in chosen),
        )

    # Variables: [x_S for each maximal set] + [rho]; maximise rho.
    m = len(sets)
    c = np.zeros(m + 1)
    c[-1] = -1.0  # linprog minimises
    # Coverage: rho - sum_{S ni i} x_S <= 0.
    a_ub = np.zeros((n, m + 1))
    for col, s in enumerate(sets):
        for i in s:
            a_ub[i, col] = -1.0
    a_ub[:, -1] = 1.0
    b_ub = np.zeros(n)
    # Budget: sum x_S = 1.
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    b_eq = np.ones(1)
    bounds = [(0.0, None)] * m + [(0.0, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
    if not result.success:  # pragma: no cover - tiny well-posed LPs
        raise ConfigurationError(f"fractional-rate LP failed: {result.message}")
    x = result.x[:m]
    return FractionalRateResult(
        rate=float(result.x[-1]),
        sets=tuple(sets),
        weights=tuple(float(v) for v in x),
    )
