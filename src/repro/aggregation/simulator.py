"""Frame-level convergecast simulation (the executable version of Fig. 1).

Semantics
---------
Time proceeds in synchronized slots.  A periodic schedule with period
``C`` activates its slots cyclically.  Every ``injection_period`` slots,
each node takes a fresh *reading* belonging to a new *frame*.  When a
tree link ``v -> parent(v)`` is activated, ``v`` transmits the partial
aggregate of the **oldest frame that is complete at v** — one whose
contributions from all of ``v``'s children (and its own reading) have
arrived.  The sink completes a frame when all its children have
reported.

With ``injection_period = C`` each link serves one frame per period, so
buffers stay bounded (the schedule *sustains* rate ``1/C``); with
``injection_period < C`` backlog grows linearly — the overflow the
paper's Fig. 1 discussion describes.  The simulator measures both, plus
per-frame latency, and verifies every completed aggregate against the
centralised reference value.

How a run is computed
---------------------
Every node forwards frames in index order.  A leaf's frames complete in
injection order, and if each child of ``v`` reports frames in order,
the frames complete at ``v`` always form a prefix — so the "oldest
complete frame" is simply the next index, and a run needs no slot loop.
With ``C`` the period, ``P`` the injection period, ``inj_f = f * P``
and ``s_v`` the slot of ``v``'s link:

* ``ready[v, f] = max(inj_f, max over children c of send[c, f] + d_c)``;
* ``send[v, f] = max(next_v(ready[v, f]), send[v, f - 1] + C)`` with
  ``next_v(t) = t + (s_v - t) mod C``, which
  ``maximum.accumulate(next_v(ready) - f*C) + f*C`` solves for all
  frames at once;
* the sink completes frame ``f`` at ``ready[sink, f]``, one slot after
  its last child's send.

**In-slot ordering.**  The links of a slot transmit in ``link_indices``
order, so a child whose link precedes its parent's in the same slot
hands its frame over within that slot (``d_c = 0``); otherwise the
parent can forward it from the next slot on (``d_c = 1``).  A certified
schedule never puts a node's receive and transmit in one slot; only
``Schedule(validate=False)`` reaches ``d_c = 0``.

**One repeat of frames.**  At ``P >= C`` a node's ready slot grows by
at least ``C`` per frame: at a leaf ``inj_f`` grows by ``P``, and up the
tree each child's send does.  So the accumulate never binds, and
``send[v, f] = next_v(ready[v, f])``.  ``K = C / gcd(P, C)`` frames span
``K * P = lcm(P, C)`` slots, a multiple of ``C``, so
``next_v(t + K * P) = next_v(t) + K * P``, and by induction from the
leaves frame ``f + K`` is frame ``f`` shifted by ``K * P`` slots at every
node.  That holds with either hand-over delay ``d_c`` (a constant per
child) and whatever ``max_slots`` is, since the timing pass never reads
it.  At the schedule's rate (``P = C``, every sweep cell) ``K`` is 1;
below it (``P < C``) ``K`` is every injected frame.

One pass over the tree, a depth at a time from the deepest up, computes
every node's send slots for the first ``K`` frames with a few array
operations per depth; one shift then unrolls them, and the sink's
completions, to every injected frame (the identity when ``K`` is every
frame).  Backlog is one event count over the unrolled slots (``+n`` per
injection, ``-1`` per forward, ``-1`` when the sink completes a frame),
and sends at or after ``max_slots`` never happen.  Values are combined
at each node in arrival order — its own reading first, then its
children's partials by send slot and position in the slot — the order a
slot-by-slot run applies them in, so float partials are bit-identical to
it.  A constant shift keeps every tie of a stable sort, so arrival
orders repeat with the frames: a node ranks its children from one
repeat's sends, frame ``f`` as frame ``f mod K``.

**Values over whole frames.**  For an aggregate with a whole-array form
(every built-in, see :mod:`repro.aggregation.functions`) a level's
readings are lifted in one call, and each inner node combines one row
per child covering all its frames, in the same arrival order; where that
order differs between frames, the children's rows are ranked per frame
first.  Each frame thus sees the same elementwise IEEE operations in the
same order as a per-frame fold, and the centralised reference folds the
readings in node order the same way (``aggregate_frames``).  User
aggregates without an array form, and runs that carry fewer than
:data:`ARRAY_MIN_FRAMES` frames (each ``median_via_counting`` probe
carries one), combine Python values frame by frame.  The fold stays a
loop over a level's nodes: combining children rank by rank across a
whole level with one ``lexsort`` measured slower (47 → 105 ms over one
sweep-frames round of 72 runs), because levels are narrow — about 3.5
nodes on those trees.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import List, NamedTuple, Optional

import numpy as np

from repro.aggregation.functions import SUM, AggregationFunction
from repro.errors import SimulationError
from repro.scheduling.schedule import Schedule
from repro.spanning.tree import AggregationTree
from repro.util.rng import RngLike, as_generator

__all__ = ["AggregationSimulator", "SimulationResult"]

#: Runs carrying fewer frames than this combine one Python value per
#: frame even when the aggregate has an array form: below it, numpy's
#: per-call cost outweighs the fold (the two break even at about 8
#: frames for n = 100-400, sum and threshold counts alike).
ARRAY_MIN_FRAMES = 8


@dataclass
class SimulationResult:
    """Measurements from one simulation run."""

    frames_injected: int
    frames_completed: int
    frames_requested: int = 0
    latencies: List[int] = field(default_factory=list)
    max_backlog: int = 0
    final_backlog: int = 0
    slots_elapsed: int = 0
    values_correct: bool = True

    @property
    def throughput(self) -> float:
        """Completed frames per slot."""
        if self.slots_elapsed == 0:
            return 0.0
        return self.frames_completed / self.slots_elapsed

    @property
    def mean_latency(self) -> float:
        """Average injection-to-completion latency (slots)."""
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    @property
    def max_latency(self) -> int:
        """Worst-case frame latency (slots)."""
        return max(self.latencies) if self.latencies else 0

    @property
    def truncated(self) -> bool:
        """Whether ``max_slots`` stopped the run before all requested
        frames were even injected."""
        return self.frames_injected < self.frames_requested

    @property
    def stable(self) -> bool:
        """Whether the run drained: every **requested** frame was
        injected and completed.

        A run that hits ``max_slots`` before injecting all frames must
        not report stability just because the few frames it did inject
        happened to complete — that is a truncated run, not a drained
        one.
        """
        return (
            not self.truncated and self.frames_completed == self.frames_injected
        )


def as_readings(readings: object) -> np.ndarray:
    """``readings`` as a float array; :class:`SimulationError` unless
    every reading is a number other than NaN (infinities pass)."""
    try:
        values = np.asarray(readings, dtype=float)
    except (TypeError, ValueError):
        raise SimulationError("readings must be numbers") from None
    if np.isnan(values).any():
        raise SimulationError("readings must not be NaN")
    return values


def _count(name: str, value: object) -> int:
    """``value`` as an ``int``; :class:`SimulationError` unless it is an
    integer (numpy integers included) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise SimulationError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


class _Level(NamedTuple):
    """The nodes at one depth of the tree, as the array pass reads them."""

    nodes: List[int]
    #: ``(width, 1)`` columns: the slot of each node's link, and its
    #: hand-over delay ``d`` to its parent.
    slot: np.ndarray
    delay: np.ndarray
    #: Width of the level above, and each node's parent as an index
    #: into it.
    above: int
    up: np.ndarray
    #: Each node's children, as indices into the level below.
    kids: List[List[int]]


class AggregationSimulator:
    """Runs frame-level convergecast over a tree and a periodic schedule.

    Parameters
    ----------
    tree:
        The rooted aggregation tree.
    schedule:
        A periodic schedule of the tree's links
        (:meth:`AggregationTree.links` order) whose slots partition them.
    function:
        The aggregate to compute (default: sum).
    """

    def __init__(
        self,
        tree: AggregationTree,
        schedule: Schedule,
        function: AggregationFunction = SUM,
    ) -> None:
        num_links = len(tree.links())
        if len(schedule.links) != num_links:
            raise SimulationError("schedule does not cover the tree's links")
        self.tree = tree
        self.schedule = schedule
        self.function = function
        n = len(tree.points)
        # Slot and in-slot position of each node's link (the sink has none).
        slot = [-1] * n
        position = [-1] * n
        senders = tree.links().sender_ids.tolist()
        for k, active in enumerate(schedule.slots):
            for j, i in enumerate(active.link_indices):
                if not 0 <= i < num_links or slot[senders[i]] >= 0:
                    raise SimulationError("schedule slots must partition the tree's links")
                slot[senders[i]], position[senders[i]] = k, j
        if sum(len(active) for active in schedule.slots) != num_links:
            raise SimulationError("schedule slots must partition the tree's links")
        # Nodes by depth (BFS order visits them depth by depth), each
        # node's index within its depth, and its children.
        parent = tree.parent.tolist()
        depth = [0] * n
        index = [0] * n
        rows: List[List[int]] = []
        children: List[List[int]] = [[] for _ in range(n)]
        for v in tree.bfs_order():
            if v != tree.sink:
                depth[v] = depth[parent[v]] + 1
                children[parent[v]].append(v)
            if depth[v] == len(rows):
                rows.append([])
            index[v] = len(rows[depth[v]])
            rows[depth[v]].append(v)
        # Children by in-slot position, as indices one level down, so a
        # stable sort on send slots breaks a same-slot tie the way the
        # slot's link order does.
        kids = [[index[c] for c in sorted(cs, key=position.__getitem__)] for cs in children]
        self._sink_kids = kids[tree.sink]
        self._levels: List[_Level] = []  # deepest first, the sink's excluded
        for d in range(len(rows) - 1, 0, -1):
            nodes = rows[d]
            self._levels.append(_Level(
                nodes=nodes,
                slot=np.array([slot[v] for v in nodes])[:, None],
                delay=np.array([
                    0 if slot[v] == slot[parent[v]] and position[v] < position[parent[v]]
                    else 1
                    for v in nodes
                ])[:, None],
                above=len(rows[d - 1]),
                up=np.array([index[parent[v]] for v in nodes]),
                kids=[kids[v] for v in nodes],
            ))

    # ------------------------------------------------------------------
    def run(
        self,
        num_frames: int,
        *,
        injection_period: Optional[int] = None,
        max_slots: Optional[int] = None,
        rng: RngLike = 0,
        readings: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Simulate ``num_frames`` frames.

        Parameters
        ----------
        injection_period:
            Slots between frame injections (default: the schedule
            period, i.e. operating exactly at the schedule's rate).
        max_slots:
            Hard stop; defaults to enough slots to drain at the stable
            rate (injections + full tree depth periods + slack).
        readings:
            Optional ``(num_frames, n_nodes)`` reading matrix; random
            uniform readings otherwise.

        ``num_frames``, ``injection_period`` and ``max_slots`` must be
        integers of at least 1, and every reading a number other than
        NaN (:class:`SimulationError` otherwise).
        """
        num_frames = _count("num_frames", num_frames)
        period = self.schedule.num_slots
        if injection_period is None:
            injection_period = period
        injection_period = _count("injection_period", injection_period)
        if max_slots is not None:
            max_slots = _count("max_slots", max_slots)
        n = len(self.tree.points)
        if readings is None:
            readings = as_generator(rng).uniform(0.0, 100.0, size=(num_frames, n))
        readings = as_readings(readings)
        if readings.shape != (num_frames, n):
            raise SimulationError(
                f"readings must have shape ({num_frames}, {n}), got {readings.shape}"
            )
        if max_slots is None:
            # Stable operation drains within height+2 periods of the last
            # injection (one level per depth below the sink); the margin
            # costs little and avoids flaky stops.
            drain = (len(self._levels) + 2) * period
            max_slots = num_frames * injection_period + drain + period

        injected = min(num_frames, (max_slots - 1) // injection_period + 1)
        # One repeat of frames: at P >= C frame f + K is frame f shifted by
        # K * P slots, K = C / gcd(P, C); below the rate every frame counts.
        repeat = injected
        if injection_period >= period:
            repeat = min(injected, period // math.gcd(injection_period, period))
        frame = np.arange(repeat, dtype=np.int64)
        spacing = frame * period
        ready = injections = frame[None] * injection_period
        # Deepest level first: a level's send slots, then the ready slots
        # they give the level above (whose own readings arrive at
        # injection); the last level handed up to is the sink's.
        sends: List[np.ndarray] = []
        for level in self._levels:
            first = ready + (level.slot - ready) % period
            sends.append(np.maximum.accumulate(first - spacing, axis=1) + spacing)
            ready = np.repeat(injections, level.above, axis=0)
            np.maximum.at(ready, level.up, sends[-1] + level.delay)
        # Unroll the repeat: frame j*K + r is frame r shifted by j*K*P.
        # The sink completes a frame one slot after its last child's send;
        # sends at or after max_slots never happen.
        injected_at = np.arange(injected, dtype=np.int64) * injection_period
        repeats = -(-injected // repeat)
        shift = np.arange(repeats, dtype=np.int64)[:, None] * (repeat * injection_period)
        send = (np.concatenate(sends)[:, None] + shift).reshape(-1, repeats * repeat)[:, :injected]
        complete = (ready[0] + shift).ravel()[:injected]
        completed = int(np.searchsorted(complete, max_slots, side="right"))
        sent = send < max_slots
        forwarded = iter(np.count_nonzero(sent, axis=1).tolist())
        # Per-slot change in backlog: +n at each injection, -1 for each
        # forward and for each frame the sink completes.
        change = -np.bincount(
            np.concatenate([send[sent], complete[:completed] - 1]),
            minlength=int(injected_at[-1]) + 1,
        )
        change[injected_at] += n
        # Values over whole frames when the aggregate has an array form
        # and the run carries enough frames; one Python value per frame
        # otherwise.  Python floats overflow to inf, and make NaN of
        # inf - inf, silently; so must the array folds.  A node ranks its
        # children's arrivals from their sends of one repeat.
        arrays = self.function.combine_array is not None and injected >= ARRAY_MIN_FRAMES
        own = readings[:injected].T
        partials: List[List[object]] = []
        carriers = np.empty(0)
        below = sends[0][:0]
        with np.errstate(over="ignore", invalid="ignore") if arrays else nullcontext():
            for level, sent_by in zip(self._levels, sends):
                frames = list(islice(forwarded, len(level.nodes)))
                if arrays:
                    carriers = self._fold(own[level.nodes], level.kids, frames, below, carriers)
                else:
                    partials = [
                        self._gather(own[v, :k], kids, below, partials)
                        for v, k, kids in zip(level.nodes, frames, level.kids)
                    ]
                below = sent_by
            sink = self.tree.sink
            if arrays:
                row = self._fold(
                    own[[sink], :completed], [self._sink_kids], [completed], below, carriers
                )[0]
                values = np.moveaxis(row, -1, 0).tolist()
            else:
                values = self._gather(own[sink, :completed], self._sink_kids, below, partials)

        slots_elapsed = int(complete[-1]) if completed == num_frames else max_slots
        backlog = np.cumsum(change[:slots_elapsed])
        return SimulationResult(
            frames_injected=injected,
            frames_completed=completed,
            frames_requested=num_frames,
            latencies=(complete[:completed] - injected_at[:completed]).tolist(),
            max_backlog=int(backlog.max()),
            final_backlog=int(backlog[-1]),
            slots_elapsed=slots_elapsed,
            values_correct=self._verify(values, readings, arrays),
        )

    # ------------------------------------------------------------------
    def _gather(
        self,
        readings: np.ndarray,
        kids: List[int],
        send: np.ndarray,
        partials: List[List[object]],
    ) -> List[object]:
        """A node's partial aggregate of each of its first
        ``len(readings)`` frames: its own reading, then its children's
        partials (rows ``kids`` of ``send`` and ``partials``) in arrival
        order.  ``send`` holds one repeat of ``K`` frames: frame ``f``
        arrives in the order of column ``f mod K``."""
        lift, combine = self.function.lift, self.function.combine
        frames = len(readings)
        acc = map(lift, readings.tolist())
        if len(kids) > 1 and frames:
            arrival = np.argsort(send[kids, :frames], axis=0, kind="stable")
            if not (arrival == arrival[:, :1]).all():
                out = list(acc)
                inputs = [partials[c] for c in kids]
                orders = arrival.T.tolist()
                for f in range(frames):
                    value = out[f]
                    for j in orders[f % len(orders)]:
                        value = combine(value, inputs[j][f])
                    out[f] = value
                return out
            kids = [kids[j] for j in arrival[:, 0].tolist()]
        # One arrival order in every frame: one map per child.
        for c in kids:
            acc = map(combine, acc, partials[c])
        return list(acc)

    def _fold(
        self,
        readings: np.ndarray,
        kids: List[List[int]],
        frames: List[int],
        send: np.ndarray,
        below: np.ndarray,
    ) -> np.ndarray:
        """The partial aggregates of one level's nodes as one carrier
        array, a row per node with the frame last: row ``i`` lifts
        ``readings[i]`` and, on its first ``frames[i]`` frames, combines
        its children's rows (rows ``kids[i]`` of ``send`` and ``below``,
        one level down) in arrival order, frame ``f`` in the order of
        column ``f mod K`` of ``send``'s one repeat.  Later frames of a
        row are never read: a parent sends no frame its children did
        not."""
        lift, combine = self.function.lift_array, self.function.combine_array
        assert lift is not None and combine is not None  # run() folds only with an array form
        rows = lift(readings)
        for i, (children, k) in enumerate(zip(kids, frames)):
            if not children or not k:
                continue
            inputs = [below[c, ..., :k] for c in children]
            if len(children) > 1:
                arrival = np.argsort(send[children, :k], axis=0, kind="stable")
                if (arrival == arrival[:, :1]).all():
                    inputs = [inputs[j] for j in arrival[:, 0].tolist()]
                else:
                    # The arrival order differs between frames: rank the
                    # children's rows frame by frame, by frame residue.
                    arrival = arrival[:, np.arange(k) % arrival.shape[1]]
                    stacked = np.stack(inputs)
                    shape = arrival.shape[:1] + (1,) * (stacked.ndim - 2) + arrival.shape[1:]
                    inputs = list(np.take_along_axis(stacked, arrival.reshape(shape), axis=0))
            acc = rows[i, ..., :k]
            for row in inputs:
                acc = combine(acc, row)
            rows[i, ..., :k] = acc
        return rows

    def _verify(self, partials: List[object], readings: np.ndarray, arrays: bool) -> bool:
        """Whether each completed frame's in-network value matches the
        centralised reference (floats within ``isclose``, others equal),
        folded over whole frames when ``arrays`` is set.  Each value is
        finalised once, in frame order."""
        function, finalize = self.function, self.function.finalize
        rows = readings[: len(partials)]
        reference = (
            function.aggregate_frames(rows) if arrays else map(function.aggregate, rows.tolist())
        )
        floats = []
        exact = True
        for value, want in zip(partials, reference):
            got = finalize(value)
            if isinstance(got, float) and isinstance(want, float):
                floats.append((got, want))
            elif got != want:
                exact = False
        if not floats:
            return exact
        got, want = np.array(floats).T
        return exact and bool(np.isclose(got, want, rtol=1e-9, atol=1e-9).all())
