"""The hand-written first-fit loops: the references for the repair
passes in :mod:`repro.scheduling.repair`.

* ``split_into_feasible_slots_fixed_power`` and
  ``IncrementalScheduler._warm_build`` are the original fixed-power
  loops, kept verbatim (the warm build as a method of an
  :class:`IncrementalScheduler` subclass, reading the carried arrays
  through :func:`carried_assignment`, the per-link dict it was written
  against), the reference for
  :class:`repro.scheduling.repair.FixedPowerPacker`.  The packer
  differential suite (``tests/test_packer_differential.py``) asserts
  that the packer-based code returns equal slots, repair counters and
  epoch deltas on every input, within a kernel-call budget.
* :func:`split_with_predicate` is the original predicate-driven split,
  and :func:`eigvals_feasible` / :func:`eigvals_power_assignment` the
  original ``eigvals``-only global-power oracle and power solve: the
  reference for the Perron-bound global packer
  (``tests/test_global_packer_differential.py``), which must return
  equal slots and bitwise-equal powers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.constants import FEASIBILITY_MARGIN
from repro.errors import ConfigurationError, InfeasibleError
from repro.links.linkset import LinkSet
from repro.scheduling.builder import BuildReport
from repro.scheduling.incremental import (
    EpochDelta,
    IncrementalScheduler,
    LinkId,
    RepairCost,
    ScheduleState,
)
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.model import SINRModel
from repro.sinr.powercontrol import affectance_matrix, spectral_radius
from repro.util.ordering import argsort_by_length_nonincreasing, first_fit

__all__ = [
    "LoopIncrementalScheduler",
    "eigvals_feasible",
    "eigvals_power_assignment",
    "split_into_feasible_slots_fixed_power",
    "split_with_predicate",
]

FeasibilityPredicate = Callable[[Sequence[int]], bool]


def split_with_predicate(
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


def eigvals_feasible(links: LinkSet, model: SINRModel) -> FeasibilityPredicate:
    """The ``eigvals`` rule of ``is_feasible_some_power`` as a
    predicate, written out so the oracle does not move with the
    library: a dense ``eigvals`` for every subset of two or more links."""

    def predicate(subset: Sequence[int]) -> bool:
        if len(subset) <= 1:
            return True
        try:
            a = affectance_matrix(links, model, subset)
        except InfeasibleError:
            return False
        return spectral_radius(a) < 1.0 - FEASIBILITY_MARGIN

    return predicate


def eigvals_power_assignment(
    links: LinkSet, model: SINRModel, active: Sequence[int]
) -> np.ndarray:
    """The original ``feasible_power_assignment``: the ``eigvals``
    verdict, then the Neumann solve."""
    idx = np.asarray(active, dtype=int)
    lengths = links.lengths[idx]
    if idx.size == 1:
        p = max(model.min_power(float(lengths[0])), 1.0)
        return np.array([p])
    a = affectance_matrix(links, model, idx)
    rho = spectral_radius(a)
    if rho >= 1.0 - FEASIBILITY_MARGIN:
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
        raise InfeasibleError("power solve produced non-positive powers")
    return q


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
            onto_members = kernel.relative_submatrix(vec, alpha, [link], slot)[0]
            from_members = kernel.relative_submatrix(vec, alpha, slot, [link])[:, 0]
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


class CarriedLink(NamedTuple):
    """One link's carried assignment, as the original loop reads it."""

    slot: int
    pos: int
    power: float
    sender: Tuple[float, ...]
    receiver: Tuple[float, ...]


def carried_assignment(state: ScheduleState) -> Dict[LinkId, CarriedLink]:
    """The carried arrays as the per-link dict of the original state."""
    return {
        (a, b): CarriedLink(slot, pos, power, tuple(sender), tuple(receiver))
        for (a, b), slot, pos, power, sender, receiver in zip(
            state.ids.tolist(),
            state.slot.tolist(),
            state.pos.tolist(),
            state.power.tolist(),
            state.senders.tolist(),
            state.receivers.tolist(),
        )
    }


class LoopIncrementalScheduler(IncrementalScheduler):
    """:class:`IncrementalScheduler` with the original warm build."""

    def _warm_build(
        self,
        links: LinkSet,
        link_ids: Sequence[LinkId],
        prev_state: ScheduleState,
    ) -> Tuple[Schedule, BuildReport]:
        n = len(links)
        if len(link_ids) != n:
            raise ConfigurationError(
                f"need one link id per link: got {len(link_ids)} ids "
                f"for {n} links"
            )
        ids: List[LinkId] = [(int(a), int(b)) for a, b in link_ids]
        if len(set(ids)) != n:
            raise ConfigurationError("link ids must be unique")

        model = self.model
        alpha = model.alpha
        threshold = model.beta
        scheme = self._builder._power_scheme(links)
        vec = np.asarray(scheme.powers(links), dtype=float)
        kernel = links.kernel()

        def rel_noise(link: int) -> float:
            if model.noise == 0.0:
                return 0.0
            with np.errstate(over="ignore"):
                return float(
                    model.noise * links.lengths[link] ** alpha / vec[link]
                )

        cost = RepairCost(links_total=n)
        delta = EpochDelta()
        assignment = carried_assignment(prev_state)
        model_changed = prev_state.model_sig != (
            model.alpha, model.beta, model.noise, model.epsilon,
        )

        # ---- delta: departed / arrived / moved ------------------------
        current = set(ids)
        delta.departed = sorted(lid for lid in assignment if lid not in current)
        carried: List[int] = []
        new_idx: List[int] = []
        changed = np.zeros(n, dtype=bool)
        for i, lid in enumerate(ids):
            prev_link = assignment.get(lid)
            if prev_link is None:
                new_idx.append(i)
                continue
            carried.append(i)
            same = (
                tuple(float(c) for c in links.senders[i]) == prev_link.sender
                and tuple(float(c) for c in links.receivers[i])
                == prev_link.receiver
                and float(vec[i]) == prev_link.power
            )
            changed[i] = not same
        delta.arrived = [ids[i] for i in new_idx]
        delta.moved = [ids[i] for i in carried if changed[i]]
        cost.links_carried = len(carried)

        # ---- eviction: re-examine dirty slots only --------------------
        groups: Dict[int, List[int]] = {}
        for i in carried:
            groups.setdefault(assignment[ids[i]].slot, []).append(i)
        for members in groups.values():
            members.sort(key=lambda i: assignment[ids[i]].pos)

        reexamined: set = set()
        slot_members: List[List[int]] = []
        # Aligned with slot_members; None = denominators not yet
        # materialised (clean slot never probed).
        slot_denoms: List[Optional[np.ndarray]] = []
        evicted: List[int] = []

        def materialise(
            members: List[int],
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            """A slot's ``(denominators, submatrix, noise)``, one kernel
            call for the whole member block."""
            sub = kernel.relative_submatrix(vec, alpha, members, members)
            noise = np.array([rel_noise(i) for i in members])
            cost.feasibility_evals += len(members)
            reexamined.update(members)
            return sub.sum(axis=0) + noise, sub, noise

        for old_slot in sorted(groups):
            members = groups[old_slot]
            dirty = model_changed or any(changed[i] for i in members)
            if not dirty:
                # Subset monotonicity: the slot lost members at most,
                # every survivor's denominator only went down.
                delta.slot_map[old_slot] = len(slot_members)
                slot_members.append(list(members))
                slot_denoms.append(None)
                continue
            denoms, sub, noise = materialise(members)
            with np.errstate(divide="ignore"):
                sinr = np.where(denoms > 0, 1.0 / denoms, np.inf)
            ok = sinr >= threshold
            keep = [m for m, good in zip(members, ok) if good]
            evicted.extend(m for m, good in zip(members, ok) if not good)
            if not keep:
                continue
            keep_pos = [p for p, good in enumerate(ok) if good]
            delta.slot_map[old_slot] = len(slot_members)
            slot_members.append(keep)
            slot_denoms.append(
                sub[np.ix_(keep_pos, keep_pos)].sum(axis=0) + noise[keep_pos]
            )
        cost.links_evicted = len(evicted)
        cost.slots_carried = len(slot_members)
        delta.evicted = sorted(ids[i] for i in evicted)

        # ---- insertion: longest-first, first-fit re-matching ----------
        to_insert = evicted + new_idx
        cost.links_inserted = len(to_insert)
        if to_insert:
            order = [
                to_insert[k]
                for k in argsort_by_length_nonincreasing(
                    links.lengths[to_insert]
                )
            ]
            for i in order:
                own_noise = rel_noise(i)
                placed = False
                for k, members in enumerate(slot_members):
                    if slot_denoms[k] is None:
                        slot_denoms[k] = materialise(members)[0]
                    onto = kernel.relative_submatrix(
                        vec, alpha, [i], members
                    )[0]
                    frm = kernel.relative_submatrix(
                        vec, alpha, members, [i]
                    )[:, 0]
                    member_denoms = slot_denoms[k] + onto
                    link_denom = float(frm.sum()) + own_noise
                    cost.feasibility_evals += len(members) + 1
                    if _sinr_ok(member_denoms, threshold) and _sinr_ok(
                        np.array([link_denom]), threshold
                    ):
                        members.append(i)
                        slot_denoms[k] = np.append(member_denoms, link_denom)
                        placed = True
                        break
                if not placed:
                    slot_members.append([i])
                    slot_denoms.append(np.array([own_noise]))
                    cost.slots_opened += 1
                    cost.feasibility_evals += 1
                reexamined.add(i)
        cost.links_reexamined = len(reexamined)

        slots = [
            Slot.from_arrays(members, vec[np.asarray(members, dtype=int)])
            for members in slot_members
        ]
        # The differential/property suites and the scenario runner's
        # slot-by-slot violation check certify feasibility externally;
        # re-validating here would pay the O(n^2) the delta pass avoids.
        schedule = Schedule(links, slots, model, validate=False)
        report = BuildReport(
            mode=self.mode,
            conflict_graph="incremental-delta",
            diversity=links.diversity,
            initial_colors=cost.slots_carried,
            final_slots=len(slots),
            split_classes=0,
            slot_sizes=[len(s) for s in slot_members],
            repair_cost=cost.as_dict(),
        )
        self.last_delta = delta
        return schedule, report
