"""Threshold functions ``f`` defining the conflict graphs (Appendix A).

Two links ``i, j`` are *f-independent* when::

    d(i, j) / l_min  >  f(l_max / l_min),

with ``l_min = min(l_i, l_j)``, ``l_max = max(l_i, l_j)``; otherwise
they conflict.  The three instantiations used by the paper:

* ``f(x) = gamma``                         -> ``G_gamma`` (``G1``),
* ``f(x) = gamma * x^delta``               -> ``G_obl``,
* ``f(x) = gamma * max(1, log^{2/(alpha-2)} x)`` -> ``G_arb``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_finite

__all__ = [
    "ThresholdFunction",
    "ConstantThreshold",
    "PowerLawThreshold",
    "LogThreshold",
]


class ThresholdFunction(abc.ABC):
    """A positive non-decreasing sub-linear function ``f: [1, inf) -> R+``."""

    #: Short name used in reports and benchmark tables.
    name: str = "f"

    @abc.abstractmethod
    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``f`` element-wise on ``x >= 1``."""

    def scalar(self, x: float) -> float:
        """Evaluate at a single point."""
        return float(self(np.asarray([x], dtype=float))[0])

    def max_radius(self, lengths: np.ndarray) -> float:
        """Conservative upper bound on the conflict radius over ``lengths``.

        Two links conflict only when ``d(i, j) <= l_min * f(l_max/l_min)``,
        so for any pair drawn from ``lengths`` the gap distance of a
        conflicting pair is at most this bound.  It is the contract the
        cell-local conflict tiles (:mod:`repro.geometry.spatial`) rely
        on: link pairs farther apart than ``max_radius`` need never be
        evaluated.

        The default exploits only the class contract (``f`` positive and
        non-decreasing): ``l_min * f(l_max/l_min) <= L_max * f(Delta)``
        with ``L_max = max(lengths)`` and diversity
        ``Delta = L_max / L_min``.  Subclasses override it with tighter
        per-threshold bounds.
        """
        lengths = np.asarray(lengths, dtype=float)
        lmax = float(lengths.max())
        lmin = float(lengths.min())
        return lmax * self.scalar(lmax / lmin)


class ConstantThreshold(ThresholdFunction):
    """``f(x) = gamma``: the graph ``G_gamma``; ``gamma = 1`` is the
    ``G1`` of Theorem 2 (conflict iff ``d(i, j) <= min(l_i, l_j)``)."""

    def __init__(self, gamma: float = 1.0) -> None:
        if check_finite("gamma", gamma) <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)
        self.name = f"G_const({self.gamma:g})"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.gamma)

    def max_radius(self, lengths: np.ndarray) -> float:
        """``gamma * L_max``: the pair bound ``l_min * gamma`` is largest
        when the shorter link is as long as possible."""
        return self.gamma * float(np.asarray(lengths, dtype=float).max())

    def __repr__(self) -> str:
        return f"ConstantThreshold(gamma={self.gamma})"


class PowerLawThreshold(ThresholdFunction):
    """``f(x) = gamma * x^delta`` with ``delta in (0, 1)``: the graph
    ``G^delta_gamma`` whose independent sets are ``P_tau``-feasible for
    an appropriate ``tau`` [13, Cor. 6]."""

    def __init__(self, gamma: float = 1.0, delta: float = 0.25) -> None:
        if check_finite("gamma", gamma) <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
        self.gamma = float(gamma)
        self.delta = float(delta)
        self.name = f"G_pow({self.gamma:g},{self.delta:g})"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.gamma * np.asarray(x, dtype=float) ** self.delta

    def max_radius(self, lengths: np.ndarray) -> float:
        """``gamma * L_max``, independent of the diversity.

        The pair bound is ``gamma * l_min^(1-delta) * l_max^delta``,
        which with ``0 < delta < 1`` and ``l_min <= l_max <= L_max`` is
        at most ``gamma * L_max`` — far tighter than the generic
        ``L_max * f(Delta)`` bound when lengths are diverse.
        """
        return self.gamma * float(np.asarray(lengths, dtype=float).max())

    def __repr__(self) -> str:
        return f"PowerLawThreshold(gamma={self.gamma}, delta={self.delta})"


class LogThreshold(ThresholdFunction):
    """``f(x) = gamma * max(1, log2(x)^(2/(alpha-2)))``: the graph
    ``G_{gamma log}`` whose independent sets are feasible under global
    power control [12, Cor. 1]."""

    def __init__(self, gamma: float = 1.0, alpha: float = 3.0) -> None:
        if check_finite("gamma", gamma) <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        if check_finite("alpha", alpha) <= 2:
            raise ConfigurationError(f"alpha must exceed 2, got {alpha}")
        self.gamma = float(gamma)
        self.alpha = float(alpha)
        self.exponent = 2.0 / (alpha - 2.0)
        self.name = f"G_log({self.gamma:g})"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        logs = np.log2(np.maximum(x, 1.0))
        return self.gamma * np.maximum(1.0, logs**self.exponent)

    def max_radius(self, lengths: np.ndarray) -> float:
        """``gamma * L_max * max(1, log2(Delta)^(2/(alpha-2)))``.

        For any pair, ``l_min <= L_max`` and ``l_max/l_min <= Delta``,
        and the log factor is non-decreasing, so the product bounds
        every pair's ``l_min * f(l_max/l_min)``.
        """
        lengths = np.asarray(lengths, dtype=float)
        lmax = float(lengths.max())
        return lmax * self.scalar(lmax / float(lengths.min()))

    def __repr__(self) -> str:
        return f"LogThreshold(gamma={self.gamma}, alpha={self.alpha})"
