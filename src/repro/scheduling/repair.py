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
  power control, where feasibility is a spectral-radius question), via
  the generic :func:`repro.util.ordering.first_fit`.
* :func:`split_into_feasible_slots_fixed_power` — for a *fixed* power
  vector the SINR condition is a per-link interference row sum, so a
  :class:`FixedPowerPacker` maintains each open slot's row sums
  incrementally: testing a candidate reads ``O(|slot|)`` entries of
  one kernel block fetched for the whole pass, instead of a full
  ``O(|slot|^2)`` rebuild per probe.

The same packer repairs carried slots in
:mod:`repro.scheduling.incremental`.  Both passes read interference
exclusively through the link set's kernel cache, whose entries come
from one set of block functions (:mod:`repro.backend.blocks`); repair
decisions are therefore bit-identical across backends.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.links.linkset import LinkSet
from repro.sinr.feasibility import sinr_from_denominators
from repro.sinr.model import SINRModel
from repro.util.ordering import argsort_by_length_nonincreasing, first_fit

__all__ = [
    "FixedPowerPacker",
    "split_into_feasible_slots",
    "split_into_feasible_slots_fixed_power",
]

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
    return first_fit(
        links.lengths[idx], idx, lambda slot, link: is_feasible(slot + [link])
    )


class FixedPowerPacker:
    """First-fit, longest-first packing of links into fixed-power slots.

    Each open slot carries the relative-interference denominator
    ``D_i = sum_j R[j, i] + N l_i^alpha / P_i`` of its members, so
    probing link ``x`` against a slot only needs the cross entries
    ``R[x, members]`` and ``R[members, x]``, and accepting updates the
    sums in place.  Slots come from :meth:`carry` or :meth:`pack`.
    ``feasibility_evals``, ``slots_opened`` and ``reexamined`` are the
    :class:`~repro.scheduling.incremental.RepairCost` tallies.
    """

    def __init__(
        self, links: LinkSet, power: np.ndarray, model: SINRModel, *, slack: float = 0.0
    ) -> None:
        self.links = links
        self.power = power
        self.model = model
        self.threshold = model.beta * (1.0 + slack)
        self.kernel = links.kernel()
        self.slots: List[List[int]] = []
        #: Aligned with ``slots``; None = a carried slot not yet probed.
        self.denoms: List[Optional[np.ndarray]] = []
        self.feasibility_evals = 0
        self.slots_opened = 0
        self.reexamined: Set[int] = set()

    def _relative(self, rows, cols) -> np.ndarray:
        return self.kernel.relative_submatrix(self.power, self.model.alpha, rows, cols)

    def _noise(self, link: int) -> float:
        """``N l^alpha / P`` of one link (a scalar power, not an array
        one: numpy's array ``power`` can round differently)."""
        model = self.model
        if model.noise == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(
                model.noise * self.links.lengths[link] ** model.alpha / self.power[link]
            )

    def _feasible(self, denoms: np.ndarray) -> np.ndarray:
        return sinr_from_denominators(denoms) >= self.threshold

    def _materialise(
        self, members: List[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A slot's ``(denominators, submatrix, noise)``, one kernel
        call for the whole member block."""
        sub = self._relative(members, members)
        noise = np.array([self._noise(i) for i in members])
        self.feasibility_evals += len(members)
        self.reexamined.update(members)
        return sub.sum(axis=0) + noise, sub, noise

    def carry(self, members: List[int], *, recheck: bool) -> List[int]:
        """Carry a previous slot over; returns the members it evicts.

        Without ``recheck`` the slot is kept whole, its denominators
        computed only at its first probe.  With it, members failing the
        SINR test are evicted and the survivors, if any, keep the slot.
        """
        if not recheck:
            self.slots.append(list(members))
            self.denoms.append(None)
            return []
        denoms, sub, noise = self._materialise(members)
        ok = self._feasible(denoms)
        keep = [p for p, good in enumerate(ok) if good]
        if keep:
            self.slots.append([members[p] for p in keep])
            self.denoms.append(sub[np.ix_(keep, keep)].sum(axis=0) + noise[keep])
        return [m for m, good in zip(members, ok) if not good]

    def pack(self, indices: Sequence[int]) -> List[List[int]]:
        """First-fit every link of ``indices``, longest first, into the
        open slots, opening a new one when none accepts it; returns all
        slots.

        The pass walks its order in runs of the kernel's ``block_size``
        links and fetches, per run, ``R[run, head]`` and ``R[head, run]``
        for ``head`` the order up to the run's end — a single
        ``R[run, run]`` for the first run, which is the whole pass when
        it fits.  A probe reads its entries against the links this pass
        placed from those blocks; against a slot's carried members (in
        it before the pass) it fetches them from the kernel.  Each
        slot's members stay carried first, placed after, so every
        denominator sum sees the same values in the same order.
        """
        order = np.asarray(indices, dtype=int)[
            argsort_by_length_nonincreasing(self.links.lengths[indices])
        ]
        carried = [np.asarray(members, dtype=int) for members in self.slots]
        # Per slot, the order positions of the links this pass placed.
        placed = [np.empty(0, dtype=int) for _ in self.slots]
        block = self.kernel.block_size
        for start in range(0, order.size, block):
            run = order[start : start + block]
            if start == 0:
                onto = frm = self._relative(run, run)
            else:
                del onto, frm  # hold at most one run's blocks at a time
                head = order[: start + run.size]
                onto = self._relative(run, head)
                frm = self._relative(head, run)
            for row, link in enumerate(run.tolist()):
                pos = start + row
                own_noise = self._noise(link)
                self.reexamined.add(link)
                for k, members in enumerate(self.slots):
                    current = self.denoms[k]
                    if current is None:
                        current = self.denoms[k] = self._materialise(members)[0]
                    to_members, from_members = onto[row, placed[k]], frm[placed[k], row]
                    if carried[k].size:
                        to_members = np.concatenate(
                            (self._relative([link], carried[k])[0], to_members)
                        )
                        from_members = np.concatenate(
                            (self._relative(carried[k], [link])[:, 0], from_members)
                        )
                    self.feasibility_evals += len(members) + 1
                    candidate = np.append(
                        current + to_members, float(from_members.sum()) + own_noise
                    )
                    if self._feasible(candidate).all():
                        members.append(link)
                        placed[k] = np.append(placed[k], pos)
                        self.denoms[k] = candidate
                        break
                else:
                    self.slots.append([link])
                    self.denoms.append(np.array([own_noise]))
                    carried.append(np.empty(0, dtype=int))
                    placed.append(np.array([pos]))
                    self.slots_opened += 1
                    self.feasibility_evals += 1
        return self.slots


def split_into_feasible_slots_fixed_power(
    links: LinkSet,
    class_indices: Sequence[int],
    power,
    model: SINRModel,
    *,
    slack: float = 0.0,
) -> List[List[int]]:
    """Incremental-row-sum variant of :func:`split_into_feasible_slots`
    for a fixed power vector: the whole class if it is feasible,
    otherwise a :class:`FixedPowerPacker` pass over it."""
    from repro.sinr.feasibility import _as_power_vector, is_feasible_with_power

    idx = [int(i) for i in np.atleast_1d(class_indices)]
    if not idx:
        return []
    vec = _as_power_vector(links, power)
    if is_feasible_with_power(links, vec, model, idx, slack=slack):
        return [idx]
    return FixedPowerPacker(links, vec, model, slack=slack).pack(idx)
