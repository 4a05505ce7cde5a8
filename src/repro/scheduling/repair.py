"""Feasibility repair: splitting a color class into certified slots.

The conflict graphs guarantee feasibility only for *sufficiently large*
constants ``gamma``; with practical constants an occasional color class
can violate the exact SINR condition.  The repair pass makes the output
unconditional: process the class longest-first and first-fit each link
into the first sub-slot that stays feasible, opening a new sub-slot when
none accepts it.  Single links are always feasible (interference-limited
assumption), so the pass terminates with certified slots.

Two implementations are provided:

* :func:`split_into_feasible_slots` — oracle-driven: each candidate
  placement calls an opaque feasibility predicate (needed for global
  power control, where feasibility is a spectral-radius question).
* :func:`split_into_feasible_slots_fixed_power` — for a *fixed* power
  vector the SINR condition is a per-link interference row sum, so the
  pass maintains each open slot's row sums incrementally: testing a
  candidate costs ``O(|slot|)`` kernel-cache entries instead of a full
  ``O(|slot|^2)`` rebuild per probe.

Both passes read interference exclusively through the link set's kernel
cache, whose entries come from one set of block functions
(:mod:`repro.backend.blocks`); repair decisions are therefore
bit-identical across backends.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.links.linkset import LinkSet
from repro.sinr.model import SINRModel
from repro.util.ordering import argsort_by_length_nonincreasing

__all__ = ["split_into_feasible_slots", "split_into_feasible_slots_fixed_power"]

FeasibilityPredicate = Callable[[Sequence[int]], bool]


def split_into_feasible_slots(
    links: LinkSet,
    class_indices: Sequence[int],
    is_feasible: FeasibilityPredicate,
) -> List[List[int]]:
    """Partition ``class_indices`` into feasible sub-slots.

    Parameters
    ----------
    links:
        The full link set (for length ordering).
    class_indices:
        Link indices of one color class.
    is_feasible:
        Oracle deciding whether a candidate index subset is feasible
        (fixed-power SINR check or power-control spectral check).

    Returns the sub-slots in creation order.  If the class is already
    feasible the result is a single slot — the common case, so it is
    checked first.
    """
    idx = [int(i) for i in np.atleast_1d(class_indices)]
    if not idx:
        return []
    if is_feasible(idx):
        return [idx]
    lengths = links.lengths[idx]
    order = [idx[k] for k in argsort_by_length_nonincreasing(lengths)]
    slots: List[List[int]] = []
    for link in order:
        placed = False
        for slot in slots:
            candidate = slot + [link]
            if is_feasible(candidate):
                slot.append(link)
                placed = True
                break
        if not placed:
            slots.append([link])
    return slots


def _sinr_ok(denoms: np.ndarray, threshold: float) -> bool:
    """Whether every relative denominator admits SINR >= threshold.

    Mirrors :func:`repro.sinr.feasibility.sinr_values` exactly: a zero
    denominator means infinite SINR (always feasible).
    """
    with np.errstate(divide="ignore"):
        sinr = np.where(denoms > 0, 1.0 / denoms, np.inf)
    return bool(np.all(sinr >= threshold))


def split_into_feasible_slots_fixed_power(
    links: LinkSet,
    class_indices: Sequence[int],
    power,
    model: SINRModel,
    *,
    slack: float = 0.0,
) -> List[List[int]]:
    """Incremental-row-sum variant of :func:`split_into_feasible_slots`
    for a fixed power vector.

    Same ordering and placement policy (first-fit, longest first), but
    instead of re-deriving the whole slot's feasibility per probe, each
    open slot carries the relative-interference denominator
    ``D_i = sum_j R[j, i] + N l_i^alpha / P_i`` of its members.  Probing
    link ``x`` against a slot only needs the new cross entries
    ``R[x, members]`` and ``R[members, x]`` — served by the link set's
    :class:`~repro.sinr.kernels.KernelCache` — and accepting updates the
    sums in place.
    """
    from repro.sinr.feasibility import _as_power_vector, is_feasible_with_power

    idx = [int(i) for i in np.atleast_1d(class_indices)]
    if not idx:
        return []
    vec = _as_power_vector(links, power)
    if is_feasible_with_power(links, vec, model, idx, slack=slack):
        return [idx]
    threshold = model.beta * (1.0 + slack)
    alpha = model.alpha
    kernel = links.kernel()
    # One content digest for the whole pass: the probes below are
    # O(|slot|) and must not each pay an O(n) hash of the power vector.
    key = kernel.relative_key(vec, alpha)

    def rel_noise(link: int) -> float:
        if model.noise == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(model.noise * links.lengths[link] ** alpha / vec[link])

    order = [idx[k] for k in argsort_by_length_nonincreasing(links.lengths[idx])]
    slots: List[List[int]] = []
    denoms: List[np.ndarray] = []  # aligned with slots, one entry per member
    for link in order:
        own_noise = rel_noise(link)
        placed = False
        for k, slot in enumerate(slots):
            onto_members = kernel.relative_submatrix(vec, alpha, [link], slot, key=key)[0]
            from_members = kernel.relative_submatrix(vec, alpha, slot, [link], key=key)[:, 0]
            member_denoms = denoms[k] + onto_members
            link_denom = float(from_members.sum()) + own_noise
            if _sinr_ok(member_denoms, threshold) and _sinr_ok(
                np.array([link_denom]), threshold
            ):
                slot.append(link)
                denoms[k] = np.append(member_denoms, link_denom)
                placed = True
                break
        if not placed:
            slots.append([link])
            denoms.append(np.array([own_noise]))
    return slots
