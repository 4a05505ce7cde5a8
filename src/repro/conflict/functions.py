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
    "REACH_MARGIN",
    "ThresholdFunction",
    "ConstantThreshold",
    "PowerLawThreshold",
    "LogThreshold",
]


#: Relative margin on every reach: far above the few ulps by which the
#: pair test's ``l_min * f(l_max / l_min)`` can round past its exact
#: value, far below a change in which grid cells a link scans.
REACH_MARGIN: float = 1e-9


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

    def reach(self, lengths: np.ndarray) -> np.ndarray:
        """Per-link bound on the conflict gap against shorter links.

        Order the links by (length, index).  Links ``i, j`` conflict
        only when ``d(i, j) <= l_min * f(l_max / l_min)``, and for every
        ``j`` before ``i`` in that order the right side is at most
        ``reach(lengths)[i]``.  It is the contract the conflict-graph
        enumeration (:mod:`repro.geometry.spatial`) relies on: a link
        need only be tested against shorter links within its reach.

        Every bound carries the relative margin :data:`REACH_MARGIN`
        over the rounding of the pair test.
        """
        lengths = np.asarray(lengths, dtype=float)
        return self._reach_bound(lengths) * (1.0 + REACH_MARGIN)

    def _reach_bound(self, lengths: np.ndarray) -> np.ndarray:
        """``l * f(l / L_min)``: the class contract alone (``f``
        positive and non-decreasing) gives, with ``l_max = l``,
        ``l_min * f(l_max / l_min) <= l * f(l / L_min)``."""
        return lengths * self(lengths / lengths.min())


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

    def _reach_bound(self, lengths: np.ndarray) -> np.ndarray:
        """``gamma * l``: the pair bound is ``l_min * gamma``."""
        return self.gamma * lengths

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

    def _reach_bound(self, lengths: np.ndarray) -> np.ndarray:
        """``gamma * l``, independent of the diversity.

        The pair bound is ``gamma * l_min^(1-delta) * l_max^delta``,
        which with ``0 < delta < 1`` and ``l_min <= l_max = l`` is at
        most ``gamma * l``: far tighter than the generic
        ``l * f(l / L_min)`` when lengths are diverse.
        """
        return self.gamma * lengths

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

    def _reach_bound(self, lengths: np.ndarray) -> np.ndarray:
        """``kappa * gamma * l``, or the generic bound where it is tighter.

        With ``x = l_max / l_min`` the pair bound is
        ``l_max * f(x) / x``, and ``f(x) / x`` peaks where
        ``ln x = e = 2 / (alpha - 2)``: ``kappa = max(1,
        (e / ln 2)^e * exp(-e))`` (1.1267 at ``alpha = 3``, 1 at
        ``alpha = 4``).  Low diversity caps ``x`` below that peak, so
        the generic ``l * f(l / L_min)`` can be smaller still.
        """
        e = self.exponent
        with np.errstate(over="ignore"):
            kappa = max(1.0, float(np.exp(e * (np.log(e / np.log(2.0)) - 1.0))))
        return np.minimum(kappa * self.gamma * lengths, super()._reach_bound(lengths))

    def __repr__(self) -> str:
        return f"LogThreshold(gamma={self.gamma}, alpha={self.alpha})"
