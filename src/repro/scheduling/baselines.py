"""Baseline schedulers the paper compares against.

* :func:`trivial_tdma_schedule` — one link per slot (rate ``1/n``); the
  fallback the paper says is unavoidable for noise-limited networks.
* :func:`greedy_sinr_schedule` — first-fit packing directly against the
  SINR condition with a *fixed* power scheme (no conflict graph); the
  natural "no power control" baseline ([8]-style).  On exponential
  chains with uniform power this degenerates to ``Theta(n)`` slots,
  which is the paper's motivation for power control.
* :func:`protocol_model_schedule` — the protocol (disk) interference
  model: a transmission succeeds iff no concurrent sender is within
  ``(1 + guard)`` times the link length of the receiver.  Random
  networks get ``Theta(log n)``-type behaviour here (Related Work).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.power.base import PowerAssignment
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.feasibility import is_feasible_with_power
from repro.sinr.model import SINRModel
from repro.util.ordering import argsort_by_length_nonincreasing, first_fit

__all__ = [
    "trivial_tdma_schedule",
    "greedy_sinr_schedule",
    "protocol_model_schedule",
    "protocol_conflict_matrix",
]


def trivial_tdma_schedule(links: LinkSet, model: SINRModel) -> Schedule:
    """One link per slot: always feasible, rate ``1/n``."""
    slots = []
    for i in range(len(links)):
        power = max(model.min_power(float(links.lengths[i])), 1.0)
        slots.append(Slot.from_arrays([i], [power]))
    return Schedule(links, slots, model)


def greedy_sinr_schedule(
    links: LinkSet, power: PowerAssignment, model: SINRModel
) -> Schedule:
    """First-fit SINR packing under a fixed power assignment.

    Processes links longest-first and adds each to the first slot whose
    occupants remain feasible with it; opens a new slot otherwise.
    """
    vec = np.asarray(power.powers(links), dtype=float)
    slots = first_fit(
        links.lengths,
        range(len(links)),
        lambda slot, link: is_feasible_with_power(links, vec, model, slot + [link]),
    )
    return Schedule(
        links,
        [Slot.from_arrays(s, vec[s]) for s in slots],
        model,
    )


def protocol_conflict_matrix(links: LinkSet, guard: float = 1.0) -> np.ndarray:
    """Boolean conflict matrix of the protocol (disk) model.

    Links ``i`` and ``j`` conflict iff sender ``j`` lies within
    ``(1 + guard) * l_i`` of receiver ``i`` or vice versa (or they share
    a node).
    """
    if guard < 0:
        raise ConfigurationError(f"guard must be non-negative, got {guard}")
    dist = links.sender_receiver_distances()  # D[j, i] = d(s_j, r_i)
    reach = (1.0 + guard) * links.lengths  # reach[i] guards receiver i
    conflict = (dist <= reach[None, :]) | (dist.T <= reach[:, None])
    shared = links.link_distances() == 0.0
    conflict |= shared
    np.fill_diagonal(conflict, False)
    return conflict


def protocol_model_schedule(
    links: LinkSet, model: SINRModel, *, guard: float = 1.0
) -> Schedule:
    """Greedy coloring of the protocol-model conflict graph.

    The resulting slots are certified *against the SINR model with
    linear power* only loosely; this scheduler exists to reproduce the
    protocol-model scaling shape, so its Schedule is built without SINR
    validation and reports slot count only.
    """
    conflict = protocol_conflict_matrix(links, guard)
    order = argsort_by_length_nonincreasing(links.lengths)
    colors = np.full(len(links), -1, dtype=int)
    for v in order:
        used = {int(colors[u]) for u in np.flatnonzero(conflict[v]) if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    slots = []
    for c in range(int(colors.max()) + 1):
        idx = np.flatnonzero(colors == c)
        powers = np.maximum(
            [model.min_power(float(l)) for l in links.lengths[idx]], 1.0
        )
        slots.append(Slot.from_arrays(idx, powers))
    return Schedule(links, slots, model, validate=False)
