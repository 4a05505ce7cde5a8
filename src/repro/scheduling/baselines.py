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
  Its conflict graph is a CSR :class:`~repro.conflict.graph.ConflictGraph`
  under :class:`ProtocolRule`, with no ``n x n`` matrix.
"""

from __future__ import annotations

import numpy as np

from repro.backend.blocks import gap_pairs
from repro.coloring.greedy import greedy_coloring
from repro.conflict.functions import REACH_MARGIN
from repro.conflict.graph import ConflictGraph
from repro.geometry.distances import min_paired_distances
from repro.links.linkset import LinkSet
from repro.power.base import PowerAssignment
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.feasibility import is_feasible_with_power
from repro.sinr.model import SINRModel
from repro.util.ordering import first_fit
from repro.util.validation import check_positive

__all__ = [
    "trivial_tdma_schedule",
    "greedy_sinr_schedule",
    "protocol_model_schedule",
    "protocol_graph",
    "ProtocolRule",
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


class ProtocolRule:
    """The protocol (disk) model as a conflict rule.

    Links ``i`` and ``j`` conflict iff sender ``j`` lies within
    ``(1 + guard) * l_i`` of receiver ``i`` or vice versa (or they share
    a node).  ``guard`` must be a finite, non-negative real number
    (:class:`~repro.errors.ConfigurationError` otherwise): a NaN one
    would make every disk test false, an infinite one every test true.
    """

    def __init__(self, guard: float = 1.0) -> None:
        self.guard = check_positive("guard", guard, strict=False)
        self.name = f"protocol({self.guard:g})"

    def reach(self, lengths: np.ndarray) -> np.ndarray:
        """``(1 + guard) * l`` with the threshold functions' margin: with
        ``l_short <= l_long``, both disk tests and a shared node put the
        midpoints within ``(1 + guard) * l_long + l_long``."""
        return (1.0 + self.guard) * np.asarray(lengths, dtype=float) * (1.0 + REACH_MARGIN)

    def conflicts(self, links: LinkSet, longer: np.ndarray, shorter: np.ndarray) -> np.ndarray:
        """The disk test of each aligned pair: every distance equals its
        entry of the full sender-receiver or gap matrix, bit for bit."""
        s, r, lengths = links.senders, links.receivers, links.lengths
        factor = 1.0 + self.guard
        into_longer = min_paired_distances((s.take(shorter, axis=0), r.take(longer, axis=0)))
        into_shorter = min_paired_distances((s.take(longer, axis=0), r.take(shorter, axis=0)))
        conflict = into_longer <= factor * lengths[longer]
        conflict |= into_shorter <= factor * lengths[shorter]
        conflict |= gap_pairs(links, longer, shorter) == 0.0
        return conflict


def protocol_graph(links: LinkSet, guard: float = 1.0) -> ConflictGraph:
    """The protocol-model conflict graph (:class:`ProtocolRule`)."""
    return ConflictGraph(links, ProtocolRule(guard))


def protocol_model_schedule(
    links: LinkSet, model: SINRModel, *, guard: float = 1.0
) -> Schedule:
    """Greedy coloring of the protocol-model conflict graph.

    The resulting slots are certified *against the SINR model with
    linear power* only loosely; this scheduler exists to reproduce the
    protocol-model scaling shape, so its Schedule is built without SINR
    validation and reports slot count only.
    """
    colors = greedy_coloring(protocol_graph(links, guard))
    slots = []
    for c in range(int(colors.max()) + 1):
        idx = np.flatnonzero(colors == c)
        powers = np.maximum(
            [model.min_power(float(l)) for l in links.lengths[idx]], 1.0
        )
        slots.append(Slot.from_arrays(idx, powers))
    return Schedule(links, slots, model, validate=False)
