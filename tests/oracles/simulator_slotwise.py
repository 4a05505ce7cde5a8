"""The slot-by-slot frame simulator: the reference for the array pass.

This is the original implementation of
:class:`repro.aggregation.simulator.AggregationSimulator`, kept verbatim
as a test oracle.  It steps every slot of the periodic schedule,
injects a frame at every node each ``injection_period`` slots, and lets
each active link forward the oldest frame complete at its sender.  The
differential suite (``tests/test_simulator_differential.py``) and
``benchmarks/bench_simulator.py`` assert that the closed-form simulator
returns an equal :class:`SimulationResult` on every input.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.aggregation.functions import SUM, AggregationFunction
from repro.aggregation.simulator import SimulationResult
from repro.errors import SimulationError
from repro.scheduling.schedule import Schedule
from repro.spanning.tree import AggregationTree
from repro.util.rng import RngLike, as_generator

__all__ = ["SlotwiseSimulator"]


class _NodeState:
    """Per-node buffers: frame -> (accumulated value, reports received).

    A frame leaves the buffer when its partial is forwarded upstream, so
    ``len(acc)`` is the node's backlog.
    """

    __slots__ = ("acc", "reports")

    def __init__(self) -> None:
        self.acc: Dict[int, object] = {}
        self.reports: Dict[int, int] = {}


class SlotwiseSimulator:
    """Runs frame-level convergecast over a tree and a periodic schedule,
    one slot at a time.

    Parameters
    ----------
    tree:
        The rooted aggregation tree.
    schedule:
        A periodic schedule of the tree's links
        (:meth:`AggregationTree.links` order).
    function:
        The aggregate to compute (default: sum).
    """

    def __init__(
        self,
        tree: AggregationTree,
        schedule: Schedule,
        function: AggregationFunction = SUM,
    ) -> None:
        if len(schedule.links) != len(tree.links()):
            raise SimulationError("schedule does not cover the tree's links")
        self.tree = tree
        self.schedule = schedule
        self.function = function
        self._num_children = {v: len(c) for v, c in tree.children().items()}
        links = tree.links()
        self._link_nodes = [
            (int(s), int(r)) for s, r in zip(links.sender_ids, links.receiver_ids)
        ]

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
        """
        if num_frames <= 0:
            raise SimulationError("need at least one frame")
        period = self.schedule.num_slots
        if injection_period is None:
            injection_period = period
        if injection_period <= 0:
            raise SimulationError("injection_period must be positive")
        n = len(self.tree.points)
        gen = as_generator(rng)
        if readings is None:
            readings = gen.uniform(0.0, 100.0, size=(num_frames, n))
        readings = np.asarray(readings, dtype=float)
        if readings.shape != (num_frames, n):
            raise SimulationError(
                f"readings must have shape ({num_frames}, {n}), got {readings.shape}"
            )
        if max_slots is None:
            # Stable operation drains within depth+2 periods of the last
            # injection; the margin costs little and avoids flaky stops.
            drain = (self.tree.height() + 2) * period
            max_slots = num_frames * injection_period + drain + period

        expected = [self.function.aggregate(readings[f]) for f in range(num_frames)]
        state = {v: _NodeState() for v in range(n)}
        sink = self.tree.sink
        completed: Dict[int, int] = {}
        injected_at: Dict[int, int] = {}
        result = SimulationResult(
            frames_injected=0, frames_completed=0, frames_requested=num_frames
        )

        for slot_time in range(max_slots):
            if slot_time % injection_period == 0:
                frame = slot_time // injection_period
                if frame < num_frames:
                    self._inject(state, readings[frame], frame)
                    injected_at[frame] = slot_time
                    result.frames_injected += 1
                    self._check_sink_completion(state[sink], frame, slot_time, completed)
            active = self.schedule.slots[slot_time % period]
            for link_index in active.link_indices:
                self._transmit(state, link_index, slot_time, completed)
            backlog = sum(len(s.acc) for s in state.values()) - len(
                [f for f in state[sink].acc if f in completed]
            )
            result.max_backlog = max(result.max_backlog, backlog)
            if len(completed) == num_frames and result.frames_injected == num_frames:
                result.slots_elapsed = slot_time + 1
                break
        else:
            result.slots_elapsed = max_slots

        result.frames_completed = len(completed)
        result.latencies = [completed[f] - injected_at[f] for f in sorted(completed)]
        result.final_backlog = sum(len(s.acc) for s in state.values()) - len(
            [f for f in state[sink].acc if f in completed]
        )
        for f, _finish in completed.items():
            got = self.function.finalize(state[sink].acc[f])
            want = expected[f]
            if isinstance(got, float) and isinstance(want, float):
                if not np.isclose(got, want, rtol=1e-9, atol=1e-9):
                    result.values_correct = False
            elif got != want:
                result.values_correct = False
        return result

    # ------------------------------------------------------------------
    def _inject(self, state: Dict[int, _NodeState], readings: np.ndarray, frame: int) -> None:
        for v in range(len(self.tree.points)):
            node = state[v]
            lifted = self.function.lift(float(readings[v]))
            if frame in node.acc:
                node.acc[frame] = self.function.combine(node.acc[frame], lifted)
            else:
                node.acc[frame] = lifted
                node.reports.setdefault(frame, 0)

    def _frame_ready(self, node: _NodeState, v: int, frame: int) -> bool:
        """All children reported and the node's own reading is present."""
        return frame in node.acc and node.reports.get(frame, 0) == self._num_children[v]

    def _transmit(
        self,
        state: Dict[int, _NodeState],
        link_index: int,
        slot_time: int,
        completed: Dict[int, int],
    ) -> None:
        sender, parent = self._link_nodes[link_index]
        node = state[sender]
        ready = [f for f in node.acc if self._frame_ready(node, sender, f)]
        if not ready:
            return
        frame = min(ready)  # oldest complete frame moves first
        value = node.acc.pop(frame)
        node.reports.pop(frame, None)
        receiver = state[parent]
        if frame in receiver.acc:
            receiver.acc[frame] = self.function.combine(receiver.acc[frame], value)
        else:
            # Child partial can only arrive after the shared injection
            # instant, so this branch guards against misuse rather than
            # a reachable schedule state.
            receiver.acc[frame] = value
        receiver.reports[frame] = receiver.reports.get(frame, 0) + 1
        self._check_sink_completion(
            state[self.tree.sink], frame, slot_time + 1, completed
        )

    def _check_sink_completion(
        self,
        sink_state: _NodeState,
        frame: int,
        time: int,
        completed: Dict[int, int],
    ) -> None:
        sink = self.tree.sink
        if frame in completed:
            return
        if frame in sink_state.acc and sink_state.reports.get(frame, 0) == self._num_children[sink]:
            completed[frame] = time
