"""Fixed-power SINR feasibility (Section 2, Equation 1).

Given a concrete power vector, a set ``S`` is feasible iff for every
link ``i``::

    P(i)/l_i^alpha  >=  beta * ( sum_{j in S, j != i} P(j)/d_ji^alpha + N )

Everything here is vectorised over the whole set at once.  The
interference row sums come from the link set's
:class:`~repro.sinr.kernels.KernelCache`, which computes only the
``|active| x |active|`` entries a query needs and evaluates very large
link sets in row blocks without ever materialising an ``n x n``
array.  The block math itself is the block
functions of :mod:`repro.backend.blocks`, so these oracles are
backend-transparent: every backend returns bitwise identical
feasibility verdicts.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.sinr.model import SINRModel
from repro.util.validation import check_distinct_links, check_link_indices

__all__ = [
    "sinr_values",
    "sinr_from_denominators",
    "denominator_limit",
    "sinr_threshold",
    "is_feasible_with_power",
    "max_relative_interference",
]


def _as_power_vector(links: LinkSet, power) -> np.ndarray:
    """Normalise ``power`` (vector or PowerAssignment) to a vector."""
    if hasattr(power, "powers"):
        vec = np.asarray(power.powers(links), dtype=float)
    else:
        vec = np.asarray(power, dtype=float)
    if vec.shape != (len(links),):
        raise ConfigurationError(
            f"power vector shape {vec.shape} does not match link count {len(links)}"
        )
    if np.any(vec <= 0) or not np.all(np.isfinite(vec)):
        raise ConfigurationError("powers must be positive and finite")
    return vec


def sinr_from_denominators(denom: np.ndarray) -> np.ndarray:
    """SINR from relative denominators ``D_i = sum_j R[j, i] + N l_i^alpha / P_i``.

    ``SINR_i = 1 / D_i``; a denominator that is not positive (zero for
    a lone link in a noiseless model) or NaN means infinite SINR.  The
    one place this rule is written: :func:`sinr_values` calls it, and
    the fixed-power repair
    (:class:`~repro.scheduling.repair.FixedPowerPacker`) compares
    denominators with the :func:`denominator_limit` derived from it, so
    their feasibility verdicts agree by construction.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return np.where(denom > 0, 1.0 / denom, np.inf)


def denominator_limit(threshold: float) -> float:
    """The largest double ``d`` with ``sinr_from_denominators(d) >= threshold``.

    Correctly rounded division is monotone, so for every double ``d``
    (zero, negative, infinite and NaN included) ``not d > limit`` holds
    exactly when ``sinr_from_denominators(d) >= threshold``: one
    comparison per denominator decides Equation (1).  Found by stepping
    ``np.nextafter`` from ``1 / threshold``, which lies within a few
    ulps of the limit, testing each step with
    :func:`sinr_from_denominators` itself.  ``threshold`` must be
    positive and finite.
    """
    if not 0.0 < threshold < np.inf:
        raise ConfigurationError(
            f"SINR threshold must be positive and finite, got {threshold}"
        )

    def feasible(d: np.float64) -> bool:
        return bool(sinr_from_denominators(d) >= threshold)

    with np.errstate(over="ignore"):
        d = np.float64(1.0) / np.float64(threshold)
    if feasible(d):
        while feasible(up := np.nextafter(d, np.inf)):
            d = up
    else:
        while not feasible(d):
            d = np.nextafter(d, -np.inf)
    return float(d)


def sinr_threshold(model: SINRModel, slack: float = 0.0) -> float:
    """``beta * (1 + slack)``, the SINR every active link must reach.

    ``slack`` tightens the test; it must be finite and at least 0, and
    the tightened threshold must stay finite, else a
    :class:`~repro.errors.ConfigurationError`.
    """
    if not (math.isfinite(slack) and slack >= 0):
        raise ConfigurationError(
            f"slack must be finite and non-negative, got {slack}"
        )
    threshold = model.beta * (1.0 + slack)
    if not math.isfinite(threshold):
        raise ConfigurationError(
            f"beta * (1 + slack) overflows: beta={model.beta}, slack={slack}"
        )
    return threshold


def _denominators(
    links: LinkSet,
    vec: np.ndarray,
    model: SINRModel,
    idx: np.ndarray,
    interference: np.ndarray,
) -> np.ndarray:
    """Relative denominators ``interference_i + N l_i^alpha / P_i`` of
    the links ``idx`` under powers ``vec``."""
    p = vec[idx]
    lengths = links.lengths[idx]
    with np.errstate(over="ignore", divide="ignore"):
        rel_noise = model.noise * lengths**model.alpha / p if model.noise else 0.0
        return interference + rel_noise


def sinr_values(
    links: LinkSet,
    power,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """SINR at every receiver of ``active`` (default: all links).

    Returns an array aligned with ``active``: entry ``k`` is the SINR of
    link ``active[k]`` when exactly the active links transmit with the
    given powers.  A repeated, out-of-range or non-integer index is a
    :class:`~repro.errors.LinkError`.
    """
    vec = _as_power_vector(links, power)
    if active is None:
        idx = np.arange(len(links))
    else:
        idx = check_link_indices(active, len(links))
        check_distinct_links(idx)
    # Work with *relative* quantities: SINR_i = 1 / (sum_j I_P(j, i) +
    # N l_i^alpha / P_i) where I_P(j, i) = (P_j/P_i) (l_i/d_ji)^alpha.
    # Ratios stay representable on instances whose absolute gains
    # under/overflow (coordinates up to ~1e154 in the adversarial
    # constructions).  The row sums are a kernel-cache query: one
    # block of the active entries, row-streamed for very large sets.
    interference = links.kernel().relative_colsums(vec, model.alpha, idx)
    return sinr_from_denominators(_denominators(links, vec, model, idx, interference))


def is_feasible_with_power(
    links: LinkSet,
    power,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
    *,
    slack: float = 0.0,
) -> bool:
    """Whether the ``active`` subset satisfies Equation (1) with the
    given powers.  ``slack`` tightens the test (requires SINR >= beta *
    (1 + slack)), useful for robustness experiments; see
    :func:`sinr_threshold`."""
    threshold = sinr_threshold(model, slack)
    values = sinr_values(links, power, model, active)
    return bool(np.all(values >= threshold))


def max_relative_interference(
    links: LinkSet,
    power,
    model: SINRModel,
    active: Optional[Sequence[int]] = None,
) -> float:
    """Maximum over active links of ``beta * (I + N) / S``.

    At most 1 iff the set is feasible; the margin is a useful scalar
    "distance to infeasibility" for diagnostics and benchmarks.
    """
    values = sinr_values(links, power, model, active)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return 0.0
    return float((model.beta / finite).max())
