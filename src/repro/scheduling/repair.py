"""Feasibility repair: splitting a color class into certified slots.

The conflict graphs guarantee feasibility only for *sufficiently large*
constants ``gamma``; with practical constants an occasional color class
can violate the exact SINR condition.  The repair pass makes the output
unconditional: process the class longest-first and first-fit each link
into the first sub-slot that stays feasible, opening a new sub-slot when
none accepts it.  Single links are always feasible (interference-limited
assumption), so the pass terminates with certified slots.

Two implementations are provided, one per power model:

* :func:`split_into_feasible_slots` — global power control, where a slot
  is feasible iff the spectral radius of its affectance matrix is below
  ``1 - FEASIBILITY_MARGIN``.  The class's affectance block is fetched
  once; each :func:`repro.util.ordering.first_fit` probe slices its
  ``(|slot| + 1)^2`` matrix from it and decides it with warm-started
  Collatz-Wielandt bounds, ``eigvals`` only as the fallback
  (:mod:`repro.sinr.powercontrol`).
* :func:`split_into_feasible_slots_fixed_power` — for a *fixed* power
  vector the SINR condition is a per-link interference row sum, so a
  :class:`FixedPowerPacker` maintains each open slot's row sums
  incrementally: testing a candidate reads ``O(|slot|)`` entries of
  one kernel block fetched for the whole pass, instead of a full
  ``O(|slot|^2)`` rebuild per probe.  A class of at most
  ``2 * block_size`` links costs one block ``R[C, C]``: its column sums
  decide the whole class, and the same block permuted to length order
  is the pass's.  Every verdict compares denominators with one limit
  derived from :func:`~repro.sinr.feasibility.sinr_from_denominators`,
  and a probe rejects on its first member row over it.

The same packer repairs carried slots in
:mod:`repro.scheduling.incremental`.  Both passes read interference
exclusively through the link set's kernel cache, whose entries come
from one set of block functions (:mod:`repro.backend.blocks`); repair
decisions are therefore bit-identical across backends.  Sharing one
block between the check and the pass relies on the same property: an
entry does not depend on the block it is computed in.  The distances
under it are computed per entry, per axis in 2-D and by ``einsum``'s
own reduction over each entry's coordinates for d >= 3 (see
:mod:`repro.geometry.distances`, where a per-axis sum would round
differently in 3-D), never by a matrix product whose rounding follows
the block's shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constants import FEASIBILITY_MARGIN
from repro.errors import LinkError
from repro.links.linkset import LinkSet
from repro.sinr.feasibility import (
    _as_power_vector,
    _denominators,
    denominator_limit,
    sinr_threshold,
)
from repro.sinr.model import SINRModel
from repro.sinr.powercontrol import _perron_feasible
from repro.util.ordering import argsort_by_length_nonincreasing, first_fit
from repro.util.validation import check_distinct_links, check_link_indices

__all__ = [
    "FixedPowerPacker",
    "split_into_feasible_slots",
    "split_into_feasible_slots_fixed_power",
]


def split_into_feasible_slots(
    links: LinkSet, class_indices: Sequence[int], model: SINRModel
) -> List[List[int]]:
    """Partition one color class into slots feasible under *some* power.

    Returns the sub-slots in creation order: the whole class if its
    affectance block ``A`` (one kernel query) has spectral radius below
    ``1 - FEASIBILITY_MARGIN`` — the common case, so it is decided
    first — and otherwise a longest-first
    :func:`~repro.util.ordering.first_fit` over the class.

    A probe of ``link`` against ``slot`` slices
    ``A[slot + [link], slot + [link]]`` from the block, in the member
    order a fresh :func:`~repro.sinr.powercontrol.affectance_matrix`
    would use, and warm-starts the bound iteration from the slot's last
    accepted iterate extended by ``A[link, slot] @ x`` (from all ones
    for a single-link slot).  A probe with an infinite entry (the link
    shares a node with a member) is infeasible, as the decision helper
    rules after one product.  Each verdict is therefore
    ``is_feasible_some_power``'s on the same set.
    """
    checked = check_link_indices(class_indices, len(links))
    idx = checked.tolist()
    if len(idx) <= 1:
        return [idx] if idx else []
    check_distinct_links(checked)
    block = links.kernel().affectance_submatrix(model, idx, idx)
    limit = 1.0 - FEASIBILITY_MARGIN
    if _perron_feasible(block, limit)[0]:
        return [idx]
    # The last accepted iterate of each open slot, keyed by its first member.
    iterates: Dict[int, Optional[np.ndarray]] = {}

    def fits(slot: List[int], pos: int) -> bool:
        members = slot + [pos]
        x = iterates.get(slot[0])
        if x is not None:
            x = np.append(x, block[pos, slot] @ x)
        ok, x = _perron_feasible(block[np.ix_(members, members)], limit, x)
        if ok:
            iterates[slot[0]] = x
        return ok

    slots = first_fit(links.lengths[idx], list(range(len(idx))), fits)
    return [[idx[pos] for pos in slot] for slot in slots]


class FixedPowerPacker:
    """First-fit, longest-first packing of links into fixed-power slots.

    Each open slot carries the relative-interference denominator
    ``D_i = sum_j R[j, i] + N l_i^alpha / P_i`` of its members, so
    probing link ``x`` against a slot only needs the cross entries
    ``R[x, members]`` and ``R[members, x]``, and accepting updates the
    sums in place.  A denominator passes Equation (1) iff it is not
    above :attr:`limit`, the
    :func:`~repro.sinr.feasibility.denominator_limit` of the threshold
    ``beta * (1 + slack)`` (``slack`` finite and at least 0): the one
    feasibility predicate of every verdict here.  Slots come from
    :meth:`carry`, :meth:`pack` or :meth:`split`; a link is in at most
    one of them.  ``feasibility_evals``, ``slots_opened`` and
    ``reexamined`` are the
    :class:`~repro.scheduling.incremental.RepairCost` tallies.
    """

    def __init__(
        self, links: LinkSet, power, model: SINRModel, *, slack: float = 0.0
    ) -> None:
        self.links = links
        self.power = _as_power_vector(links, power)
        self.model = model
        self.limit = denominator_limit(sinr_threshold(model, slack))
        self.kernel = links.kernel()
        self.slots: List[List[int]] = []
        #: Aligned with ``slots``; None = a carried slot not yet probed.
        self.denoms: List[Optional[np.ndarray]] = []
        self.feasibility_evals = 0
        self.slots_opened = 0
        self.reexamined: Set[int] = set()
        #: Whether each link is in an open slot.
        self._open = np.zeros(len(links), dtype=bool)

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

    def _indices(self, indices: Sequence[int]) -> np.ndarray:
        """``indices`` as an int array; a :class:`~repro.errors.LinkError`
        names an out-of-range or repeated one, or one already in an open
        slot."""
        idx = check_link_indices(indices, len(self.links))
        check_distinct_links(idx)
        if self.slots and self._open[idx].any():
            bad = idx[self._open[idx]][0]
            raise LinkError(f"link index {bad} is already in an open slot")
        return idx

    def carry(self, members: List[int], *, recheck: bool) -> List[int]:
        """Carry a previous slot over; returns the members it evicts.

        Without ``recheck`` the slot is kept whole, its denominators
        computed only at its first probe.  With it, members failing the
        SINR test are evicted and the survivors, if any, keep the slot.
        A repeated or out-of-range index, or one already in an open
        slot, is a :class:`~repro.errors.LinkError`.
        """
        members = self._indices(members).tolist()
        if not recheck:
            self.slots.append(members)
            self.denoms.append(None)
            self._open[members] = True
            return []
        denoms, sub, noise = self._materialise(members)
        bad = (denoms > self.limit).tolist()
        keep = [p for p, evict in enumerate(bad) if not evict]
        if keep:
            self.slots.append([members[p] for p in keep])
            self.denoms.append(sub[np.ix_(keep, keep)].sum(axis=0) + noise[keep])
            self._open[self.slots[-1]] = True
        return [m for m, evict in zip(members, bad) if evict]

    def split(self, indices: Sequence[int]) -> List[List[int]]:
        """The links of ``indices`` (one color class, empty packer) as
        the whole class if it is feasible, otherwise as :meth:`pack`'s
        slots.

        A class of at most ``2 * block_size`` links is decided from one
        block ``R[C, C]`` in class order, its column sums added as
        :meth:`~repro.sinr.kernels.KernelCache.relative_colsums` adds
        them (:meth:`~repro.sinr.kernels.KernelCache.column_sums`), and
        the block permuted to length order is the pass's only run: check
        and pass cost one kernel evaluation.  The cap bounds memory: at
        ``2 * block_size`` links the class block and the pass's
        transposed copy (``8 block_size^2`` floats) hold about what the
        streamed pass's last run does (``R[run, head]``,
        ``R[head, run]`` and its transposed copy, ``6 block_size^2``,
        plus the check's own chunk), for half the entries.  Past it one
        block would grow as ``|C|^2``, so a larger class keeps the
        streamed column sums and :meth:`pack`'s runs, which grow as
        ``block_size * |C|``.
        """
        idx = self._indices(indices)
        kernel = self.kernel
        block = None
        if idx.size <= 2 * kernel.block_size:
            block = self._relative(idx, idx)
            colsums = kernel.column_sums(idx.size, block.__getitem__)
        else:
            colsums = kernel.relative_colsums(self.power, self.model.alpha, idx)
        denoms = _denominators(self.links, self.power, self.model, idx, colsums)
        if not (denoms > self.limit).any():
            return [idx.tolist()]
        perm = argsort_by_length_nonincreasing(self.links.lengths[idx])
        first = None if block is None else block[np.ix_(perm, perm)]
        del block  # hold one copy of the class block, not two
        return self._place(idx[perm], first)

    def pack(self, indices: Sequence[int]) -> List[List[int]]:
        """First-fit every link of ``indices``, longest first, into the
        open slots, opening a new one when none accepts it; returns all
        slots.  A repeated or out-of-range index, or one already in an
        open slot, is a :class:`~repro.errors.LinkError`.

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
        idx = self._indices(indices)
        order = idx[argsort_by_length_nonincreasing(self.links.lengths[idx])]
        return self._place(order, None)

    def _place(self, order: np.ndarray, first: Optional[np.ndarray]) -> List[List[int]]:
        """:meth:`pack`'s pass over ``order``; ``first``, when given, is
        ``R[order, order]``, the pass's only run.

        The pass keeps one denominator and one slot label per position
        of ``order``.  For the link at position ``pos`` one sum
        ``den[:pos] + R[link, order[:pos]]`` and one comparison with
        :attr:`limit` find every slot that a member placed by the pass
        rules out; a slot that survives it (and its carried members,
        fetched per probe) sums the link's own column, read from a
        contiguous transposed copy of the run's ``R[head, run]`` at its
        members' positions.  Accepting writes the sums back in place.
        Afterwards :attr:`denoms` holds each slot's denominators,
        carried members first.
        """
        limit = self.limit
        slots, denoms = self.slots, self.denoms
        # Carried members and their denominators (None = not yet probed);
        # members this pass places live in ``den``/``label`` by position.
        carried = [np.asarray(members, dtype=int) for members in slots]
        den = np.empty(order.size)
        label = np.empty(order.size, dtype=np.intp)
        self._open[order] = True
        evals = 0
        step = self.kernel.block_size if first is None else max(order.size, 1)
        for start in range(0, order.size, step):
            run = order[start : start + step]
            if start == 0:
                onto = self._relative(run, run) if first is None else first
                frm_t = np.ascontiguousarray(onto.T)
            else:
                del onto, frm_t  # hold at most one run's blocks at a time
                head = order[: start + run.size]
                onto = self._relative(run, head)
                frm_t = np.ascontiguousarray(self._relative(head, run).T)
            for row, link in enumerate(run.tolist()):
                pos = start + row
                own_noise = self._noise(link)
                self.reexamined.add(link)
                placed = label[:pos]
                seg = den[:pos] + onto[row, :pos]
                ruled_out = np.zeros(len(slots), dtype=bool)
                ruled_out[placed[seg > limit]] = True
                ruled_out = ruled_out.tolist()
                for k, members in enumerate(slots):
                    if denoms[k] is None:
                        denoms[k] = self._materialise(members)[0]
                    evals += len(members) + 1
                    fixed = carried[k]
                    if fixed.size:
                        to_fixed = denoms[k] + self._relative([link], fixed)[0]
                        from_fixed = self._relative(fixed, [link])[:, 0]
                        if (to_fixed > limit).any():
                            continue
                    if ruled_out[k]:
                        continue
                    mine = (placed == k).nonzero()[0]
                    from_members = frm_t[row, mine]
                    if fixed.size:
                        from_members = np.concatenate((from_fixed, from_members))
                    own = float(from_members.sum()) + own_noise
                    if own > limit:
                        continue
                    members.append(link)
                    if fixed.size:
                        denoms[k] = to_fixed
                    den[mine] = seg[mine]
                    den[pos], label[pos] = own, k
                    break
                else:
                    slots.append([link])
                    denoms.append(np.empty(0))
                    carried.append(np.empty(0, dtype=int))
                    den[pos], label[pos] = own_noise, len(slots) - 1
                    self.slots_opened += 1
                    evals += 1
        self.feasibility_evals += evals
        for k, current in enumerate(denoms):
            mine = (label == k).nonzero()[0]
            if mine.size:
                denoms[k] = np.concatenate((current, den[mine]))
        return slots


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
    otherwise a :class:`FixedPowerPacker` pass over it
    (:meth:`FixedPowerPacker.split`)."""
    idx = check_link_indices(class_indices, len(links))
    if not idx.size:
        return []
    return FixedPowerPacker(links, power, model, slack=slack).split(idx)
