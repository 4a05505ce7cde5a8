"""Incremental delta scheduling across scenario epochs.

A scenario timeline (:mod:`repro.scenarios`) re-resolves every epoch
from scratch, so a churn epoch that moves 3 of 10k nodes rebuilds the
whole schedule.  The :class:`IncrementalScheduler` instead carries the
previous epoch's slot assignment forward as a :class:`ScheduleState`
(keyed by *persistent* link identity), computes the epoch delta —
departed / arrived / moved links — and repairs only what the delta
actually touched:

* **Eviction oracle** — a carried slot is *dirty* only if the SINR
  model changed or one of its members moved (geometry or power).  For a
  fixed power vector, removing links from a feasible slot only lowers
  the remaining members' interference sums, so a slot that merely lost
  members is still feasible and is never re-examined.  Every carried
  slot goes to :meth:`~repro.scheduling.repair.FixedPowerPacker.carry`;
  a dirty one gets one row-sum check there: members whose relative
  denominator ``D_i = sum_j R[j,i] + N l_i^alpha / P_i`` exceeds
  ``1/beta`` are evicted, the rest keep their slot.
* **Re-matching insertion** — evicted plus newly arrived links are
  re-inserted by the same packer's
  :meth:`~repro.scheduling.repair.FixedPowerPacker.pack`: longest-first,
  first-fit into the surviving slots (lazily materialising a slot's
  denominator vector only when it is first probed), opening a new slot
  only when no existing slot accepts — the greedy matching pass of the
  bipartite links x slots assignment.  Entries among the re-inserted
  links come from one kernel block per pass; entries against carried
  members are fetched per probe, so no epoch ever evaluates the
  ``n x n`` kernel.
* **Repair cost** — :class:`RepairCost` counters (links re-examined,
  per-link feasibility evaluations, slots opened, tallied by the
  packer) make the O(affected) vs O(n) distinction measurable per
  epoch.

Only fixed-power modes are supported: the row-sum oracle *is* the
fixed-power feasibility condition, whereas GLOBAL power re-derives a
bespoke power vector per slot (a spectral-radius question that has no
incremental row form).  Cold starts (no carried state) delegate to the
certified :class:`~repro.scheduling.builder.ScheduleBuilder`, so epoch
0 of an incremental timeline is bit-identical to the from-scratch path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.scheduling.builder import BuildReport, PowerMode, ScheduleBuilder
from repro.scheduling.repair import FixedPowerPacker
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.model import SINRModel

__all__ = [
    "EpochDelta",
    "IncrementalScheduler",
    "RepairCost",
    "ScheduleState",
    "link_ids_for_links",
]

#: Persistent identity of a link across epochs: the (sender node id,
#: receiver node id) pair in the scenario's stable id space.
LinkId = Tuple[int, int]


#: Link ids as accepted at the API: a sequence of pairs or an
#: ``(m, 2)`` integer array.
LinkIds = Union[Sequence[LinkId], np.ndarray]


def link_ids_for_links(links: LinkSet, node_ids) -> np.ndarray:
    """Persistent link ids of a tree-derived link set under ``node_ids``,
    as an ``(m, 2)`` int64 array of ``(sender id, receiver id)`` rows.

    Tree link sets carry ``sender_ids`` / ``receiver_ids`` indexing the
    epoch's *positional* point set; mapping through the epoch's
    persistent ``node_ids`` yields identities that survive churn
    renumbering.
    """
    ids = np.asarray(node_ids, dtype=np.int64)
    return np.column_stack((ids[links.sender_ids], ids[links.receiver_ids]))


def _link_id_array(link_ids: LinkIds, n: int) -> np.ndarray:
    """``link_ids`` as an ``(n, 2)`` int64 array with unique rows;
    :class:`ConfigurationError` for a wrong count, a row that is not an
    integer pair, or a repeated id."""
    if len(link_ids) != n:
        raise ConfigurationError(
            f"need one link id per link: got {len(link_ids)} ids for {n} links"
        )
    try:
        ids = np.asarray(link_ids)
    except ValueError:  # ragged rows
        ids = np.asarray(None)
    if ids.ndim != 2 or ids.shape[1] != 2 or not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(
            "link ids must be (sender id, receiver id) pairs of integers"
        )
    ids = ids.astype(np.int64, copy=False)
    ordered = ids[np.lexsort((ids[:, 1], ids[:, 0]))]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise ConfigurationError("link ids must be unique")
    return ids


def _id_list(ids: np.ndarray) -> List[LinkId]:
    """Rows of an id array as :data:`LinkId` tuples."""
    return [(a, b) for a, b in ids.tolist()]


@dataclass(frozen=True, eq=False)
class ScheduleState:
    """The carried state of one scheduled epoch, as parallel arrays.

    One row per scheduled link, in ascending :data:`LinkId` order:
    ``ids`` (``(m, 2)`` int64), the link's ``slot`` index and its
    position ``pos`` within the slot (int64), the exact ``power`` it
    transmitted with (float64) and its ``senders`` / ``receivers``
    endpoint coordinates (``(m, d)`` float64) — everything the next
    epoch needs to decide whether the link moved and to reproduce
    slot/member order bit-for-bit when nothing changed.  A link that
    sits in no slot (a ``validate=False`` schedule) has no row.
    ``model_sig`` pins the SINR parameters the state was certified
    under.  The arrays are read-only.
    """

    ids: np.ndarray
    slot: np.ndarray
    pos: np.ndarray
    power: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    num_slots: int
    model_sig: Tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for column in (self.ids, self.slot, self.pos, self.power, self.senders, self.receivers):
            column.flags.writeable = False

    @classmethod
    def from_schedule(
        cls,
        schedule: Schedule,
        link_ids: LinkIds,
        model: SINRModel,
    ) -> "ScheduleState":
        """Capture ``schedule``'s assignment under persistent ids."""
        links = schedule.links
        ids = _link_id_array(link_ids, len(links))
        sizes = [len(slot) for slot in schedule.slots]
        m = sum(sizes)
        index = np.empty(m, dtype=np.int64)
        power = np.empty(m, dtype=float)
        slot_of = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        starts = np.cumsum([0] + sizes)
        for k, slot in enumerate(schedule.slots):
            index[starts[k]:starts[k + 1]] = slot.link_indices
            power[starts[k]:starts[k + 1]] = slot.powers
        pos = np.arange(m, dtype=np.int64) - starts[slot_of]
        # Ascending id order; lexsort is stable, so a link that a
        # malformed schedule lists twice keeps its last slot.
        order = np.lexsort((ids[index, 1], ids[index, 0]))
        last = np.ones(m, dtype=bool)
        last[:-1] = (np.diff(ids[index[order]], axis=0) != 0).any(axis=1)
        rows = order[last]
        kept = index[rows]
        return cls(
            ids=ids[kept],
            slot=slot_of[rows],
            pos=pos[rows],
            power=power[rows],
            senders=np.asarray(links.senders, dtype=float)[kept],
            receivers=np.asarray(links.receivers, dtype=float)[kept],
            num_slots=schedule.num_slots,
            model_sig=(model.alpha, model.beta, model.noise, model.epsilon),
        )

    def signature(self) -> str:
        """Content digest of the carried state: SHA-1 over a header
        (model parameters, slot count, array shape) followed by every
        array's little-endian bytes.

        Folded into the schedule stage key by
        :func:`repro.store.keys.schedule_key` so an epoch scheduled
        incrementally never collides with the same epoch scheduled from
        scratch — and two different carried histories never collide
        with each other.
        """
        digest = hashlib.sha1(np.array(self.model_sig, dtype="<f8").tobytes())
        digest.update(np.array([self.num_slots, *self.senders.shape], dtype="<i8").tobytes())
        for column in (self.ids, self.slot, self.pos):
            digest.update(column.astype("<i8", copy=False).tobytes())
        for column in (self.power, self.senders, self.receivers):
            digest.update(column.astype("<f8", copy=False).tobytes())
        return digest.hexdigest()


@dataclass
class RepairCost:
    """What one incremental build actually paid.

    ``links_reexamined`` counts distinct links whose interference row
    the pass evaluated (dirty-slot members, members of slots
    materialised for insertion probes, and the inserted links
    themselves); ``feasibility_evals`` counts per-link row evaluations
    (one link checked against one slot = ``|slot|`` member rows + its
    own).  ``cold_start`` marks a from-scratch delegation, where the
    counters describe the full build instead of a delta.
    """

    links_total: int = 0
    links_carried: int = 0
    links_evicted: int = 0
    links_inserted: int = 0
    links_reexamined: int = 0
    feasibility_evals: int = 0
    slots_carried: int = 0
    slots_opened: int = 0
    cold_start: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "links_total": self.links_total,
            "links_carried": self.links_carried,
            "links_evicted": self.links_evicted,
            "links_inserted": self.links_inserted,
            "links_reexamined": self.links_reexamined,
            "feasibility_evals": self.feasibility_evals,
            "slots_carried": self.slots_carried,
            "slots_opened": self.slots_opened,
            "cold_start": self.cold_start,
        }


@dataclass
class EpochDelta:
    """The delta one warm build acted on (diagnostic, used by tests)."""

    departed: List[LinkId] = field(default_factory=list)
    arrived: List[LinkId] = field(default_factory=list)
    moved: List[LinkId] = field(default_factory=list)
    evicted: List[LinkId] = field(default_factory=list)
    #: old slot index -> new slot index for surviving carried slots.
    slot_map: Dict[int, int] = field(default_factory=dict)


class IncrementalScheduler:
    """Delta scheduler carrying slot assignments across epochs.

    Constructed like the certified
    :class:`~repro.scheduling.builder.ScheduleBuilder` (same constants,
    same fixed-power semantics) but with
    :meth:`schedule` accepting the previous epoch's
    :class:`ScheduleState`.  GLOBAL power mode is rejected: the
    incremental eviction oracle is the fixed-power row-sum condition.

    Builder kwargs (``gamma``/``delta``/``tau``) are forwarded verbatim;
    the eviction and re-insert probes read the link set's attached
    kernel cache, as a from-scratch build does.
    """

    def __init__(
        self,
        model: SINRModel,
        mode: PowerMode | str = PowerMode.OBLIVIOUS,
        **builder_kwargs: Any,
    ) -> None:
        mode = PowerMode(mode)
        if mode is PowerMode.GLOBAL:
            raise ConfigurationError(
                "incremental scheduling needs a fixed power vector; "
                "GLOBAL (per-slot power control) has no incremental "
                "row-sum feasibility form — use oblivious/uniform/"
                "linear/mean"
            )
        self.model = model
        self.mode = mode
        self._builder = ScheduleBuilder(model, mode, **builder_kwargs)
        #: Delta of the most recent warm build (None after cold starts).
        self.last_delta: Optional[EpochDelta] = None

    # ------------------------------------------------------------------
    def schedule(
        self,
        links: LinkSet,
        *,
        link_ids: Optional[LinkIds] = None,
        prev_state: Optional[ScheduleState] = None,
    ) -> Tuple[Schedule, BuildReport]:
        """Schedule ``links``, reusing ``prev_state`` where possible.

        Without carried state (or without ids to match it against) this
        is exactly the certified from-scratch build.  With both, only
        the delta is re-examined; the returned report's ``repair_cost``
        carries the :class:`RepairCost` counters either way.
        """
        if prev_state is None or link_ids is None:
            return self._cold_start(links)
        return self._warm_build(links, link_ids, prev_state)

    # ------------------------------------------------------------------
    def _cold_start(self, links: LinkSet) -> Tuple[Schedule, BuildReport]:
        self.last_delta = None
        schedule, report = self._builder.build_with_report(links)
        cost = RepairCost(
            links_total=len(links),
            links_inserted=len(links),
            links_reexamined=len(links),
            slots_opened=report.final_slots,
            cold_start=True,
        )
        report.repair_cost = cost.as_dict()
        return schedule, report

    def _warm_build(
        self,
        links: LinkSet,
        link_ids: LinkIds,
        prev_state: ScheduleState,
    ) -> Tuple[Schedule, BuildReport]:
        n = len(links)
        ids = _link_id_array(link_ids, n)

        model = self.model
        scheme = self._builder._power_scheme(links)
        vec = np.asarray(scheme.powers(links), dtype=float)
        packer = FixedPowerPacker(links, vec, model)

        cost = RepairCost(links_total=n)
        delta = EpochDelta()
        model_changed = prev_state.model_sig != (
            model.alpha, model.beta, model.noise, model.epsilon,
        )

        # ---- delta: departed / arrived / moved ------------------------
        row_of = {lid: r for r, lid in enumerate(map(tuple, prev_state.ids.tolist()))}
        rows = np.array(
            [row_of.get(lid, -1) for lid in map(tuple, ids.tolist())], dtype=np.int64
        )
        carried = np.flatnonzero(rows >= 0)
        new_idx = np.flatnonzero(rows < 0)
        rows = rows[carried]
        present = np.zeros(len(prev_state.ids), dtype=bool)
        present[rows] = True
        delta.departed = _id_list(prev_state.ids[~present])
        # Bit-exact like a float compare: -0.0 == 0.0, NaN never equal.
        same = vec[carried] == prev_state.power[rows]
        if links.senders.shape[1] == prev_state.senders.shape[1]:
            same &= (links.senders[carried] == prev_state.senders[rows]).all(axis=1)
            same &= (links.receivers[carried] == prev_state.receivers[rows]).all(axis=1)
        else:
            same[:] = False
        changed = np.zeros(n, dtype=bool)
        changed[carried] = ~same
        delta.arrived = _id_list(ids[new_idx])
        delta.moved = _id_list(ids[np.flatnonzero(changed)])
        cost.links_carried = len(carried)

        # ---- eviction: re-examine dirty slots only --------------------
        order = np.lexsort((prev_state.pos[rows], prev_state.slot[rows]))
        old_slots = prev_state.slot[rows][order]
        starts = np.flatnonzero(np.diff(old_slots, prepend=-1))
        evicted: List[int] = []
        for old_slot, members in zip(
            old_slots[starts].tolist(), np.split(carried[order], starts[1:])
        ):
            new_slot = len(packer.slots)
            # A clean slot lost members at most, so (subset monotonicity)
            # every survivor's denominator only went down.
            evicted += packer.carry(
                members.tolist(),
                recheck=model_changed or bool(changed[members].any()),
            )
            if len(packer.slots) > new_slot:
                delta.slot_map[old_slot] = new_slot
        cost.links_evicted = len(evicted)
        cost.slots_carried = len(packer.slots)
        delta.evicted = sorted(_id_list(ids[evicted]))

        # ---- insertion: longest-first, first-fit re-matching ----------
        to_insert = evicted + new_idx.tolist()
        cost.links_inserted = len(to_insert)
        slot_members = packer.pack(to_insert)
        cost.links_reexamined = len(packer.reexamined)
        cost.feasibility_evals = packer.feasibility_evals
        cost.slots_opened = packer.slots_opened

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

    def __repr__(self) -> str:
        return (
            f"IncrementalScheduler(mode={self.mode.value}, "
            f"gamma={self._builder.gamma}, delta={self._builder.delta}, "
            f"tau={self._builder.tau})"
        )
