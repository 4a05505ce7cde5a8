"""The level-by-level array pass: the reference for the repeat.

This is :meth:`repro.aggregation.simulator.AggregationSimulator.run` as
it was before the timing pass covered one repeat of frames, kept
verbatim with its ``_gather``/``_fold`` helpers: it computes every
frame's send slots at every tree depth, and counts forwards and backlog
drops depth by depth.  :class:`LevelSimulator` reuses the library's
construction (the ``_Level`` rows) and ``_verify``.
``tests/test_simulator_differential.py`` and
``benchmarks/bench_simulator.py`` assert that the library returns an
equal :class:`SimulationResult` and bit-identical sink values, and the
bench times the two passes in one run.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from repro.aggregation.simulator import (
    ARRAY_MIN_FRAMES,
    AggregationSimulator,
    SimulationResult,
    _count,
    as_readings,
)
from repro.errors import SimulationError
from repro.util.rng import RngLike, as_generator

__all__ = ["LevelSimulator"]


def _drop(counts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Subtract one from ``counts`` per entry of ``times``, growing
    ``counts`` to reach the latest of them."""
    drops = np.bincount(times)
    if drops.size > counts.size:
        counts = np.concatenate([counts, np.zeros(drops.size - counts.size, np.int64)])
    counts[: drops.size] -= drops
    return counts


class LevelSimulator(AggregationSimulator):
    """The frame simulator with the per-depth pass over every frame."""

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
        frame = np.arange(injected, dtype=np.int64)
        injected_at = frame * injection_period
        spacing = frame * period
        own = readings[:injected].T
        # Per-slot change in backlog: +n at each injection, -1 for each
        # forward and for each frame the sink completes.
        change = np.zeros(int(injected_at[-1]) + 1, dtype=np.int64)
        change[injected_at] = n
        # Deepest level first: a level's send slots, then the ready slots
        # they give the level above (whose own readings arrive at
        # injection); the last level handed up to is the sink's.
        ready = np.tile(injected_at, (len(self._levels[0].nodes), 1))
        send = np.empty((0, injected), dtype=np.int64)
        # Values over whole frames when the aggregate has an array form
        # and the run carries enough frames; one Python value per frame
        # otherwise.  Python floats overflow to inf, and make NaN of
        # inf - inf, silently; so must the array folds.
        arrays = self.function.combine_array is not None and injected >= ARRAY_MIN_FRAMES
        partials: List[List[object]] = []
        carriers = np.empty(0)
        with np.errstate(over="ignore", invalid="ignore") if arrays else nullcontext():
            for level in self._levels:
                first = ready + (level.slot - ready) % period
                below, send = send, np.maximum.accumulate(first - spacing, axis=1) + spacing
                sent = send < max_slots
                change = _drop(change, send[sent])
                frames = sent.sum(axis=1).tolist()
                if arrays:
                    carriers = self._fold(own[level.nodes], level.kids, frames, below, carriers)
                else:
                    partials = [
                        self._gather(own[v, :k], kids, below, partials)
                        for v, k, kids in zip(level.nodes, frames, level.kids)
                    ]
                ready = np.tile(injected_at, (level.above, 1))
                np.maximum.at(ready, level.up, send + level.delay)
            # The sink completes a frame one slot after its last child's send.
            complete = ready[0]
            completed = int(np.searchsorted(complete, max_slots, side="right"))
            change = _drop(change, complete[:completed] - 1)
            sink = self.tree.sink
            if arrays:
                row = self._fold(own[[sink], :completed], [self._sink_kids], [completed], send, carriers)[0]
                values = np.moveaxis(row, -1, 0).tolist()
            else:
                values = self._gather(own[sink, :completed], self._sink_kids, send, partials)

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
        order."""
        lift, combine = self.function.lift, self.function.combine
        frames = len(readings)
        acc = map(lift, readings.tolist())
        if len(kids) > 1 and frames:
            arrival = np.argsort(send[kids, :frames], axis=0, kind="stable")
            if not (arrival == arrival[:, :1]).all():
                out = list(acc)
                inputs = [partials[c] for c in kids]
                for f, order in enumerate(arrival.T.tolist()):
                    value = out[f]
                    for j in order:
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
        one level down) in arrival order.  Later frames of a row are
        never read: a parent sends no frame its children did not."""
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
                    # children's rows frame by frame.
                    stacked = np.stack(inputs)
                    shape = arrival.shape[:1] + (1,) * (stacked.ndim - 2) + arrival.shape[1:]
                    inputs = list(np.take_along_axis(stacked, arrival.reshape(shape), axis=0))
            acc = rows[i, ..., :k]
            for row in inputs:
                acc = combine(acc, row)
            rows[i, ..., :k] = acc
        return rows
