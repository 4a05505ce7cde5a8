"""Distributed schedule computation (Section 3.3), simulated.

The paper sketches a distributed protocol: process length classes
``L_T, ..., L_1`` longest-first; within a class, run a distributed
coloring subroutine ([28]-style) and then locally broadcast the chosen
colors ([10]-style) so shorter links learn them.

This module simulates that protocol synchronously (Substitution S3 in
DESIGN.md):

* the per-class coloring is a randomised contention-resolution process:
  in each round every uncolored link, with probability 1/2, proposes
  the smallest color not used by its already-colored conflict
  neighbours; a proposal commits unless a conflicting link proposed the
  same color in the same round;
* the local-broadcast cost is accounted with the paper's envelope
  ``O(opt_t + log^2 n)`` rounds per phase (with collision detection).

The simulation's *output coloring* is verified proper on the full
conflict graph, so correctness does not rest on the round accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.coloring.validation import is_proper_coloring
from repro.conflict.graph import ConflictGraph
from repro.errors import ScheduleError
from repro.links.classes import length_classes
from repro.links.linkset import LinkSet
from repro.scheduling.builder import PowerMode, ScheduleBuilder
from repro.sinr.model import SINRModel
from repro.util.rng import RngLike, as_generator

__all__ = ["DistributedSchedulingSimulator", "DistributedRunResult"]


@dataclass
class PhaseStats:
    """Round accounting for one length-class phase."""

    class_id: int
    class_size: int
    coloring_rounds: int
    broadcast_rounds: int

    @property
    def total_rounds(self) -> int:
        return self.coloring_rounds + self.broadcast_rounds


@dataclass
class DistributedRunResult:
    """Outcome of a simulated distributed schedule computation."""

    colors: np.ndarray
    phases: List[PhaseStats] = field(default_factory=list)

    @property
    def num_colors(self) -> int:
        return int(self.colors.max()) + 1

    @property
    def total_rounds(self) -> int:
        return sum(p.total_rounds for p in self.phases)

    @property
    def num_phases(self) -> int:
        return len(self.phases)


class DistributedSchedulingSimulator:
    """Simulates the Section 3.3 protocol on a link set.

    Parameters
    ----------
    model:
        SINR parameters (selects the conflict graph via the builder).
    mode:
        ``GLOBAL`` or ``OBLIVIOUS`` — which conflict graph the nodes
        color.
    broadcast_collision_detection:
        Whether the local-broadcast envelope assumes collision
        detection (``opt + log^2 n``) or not (``opt log n + log^2 n``).
    """

    #: Hard cap on contention rounds per phase; hitting it indicates a
    #: broken contention process rather than bad luck (probability
    #: ~2^-cap per link).
    MAX_ROUNDS_PER_PHASE = 100_000

    def __init__(
        self,
        model: SINRModel,
        mode: PowerMode | str = PowerMode.GLOBAL,
        *,
        broadcast_collision_detection: bool = True,
    ) -> None:
        self.model = model
        self.mode = PowerMode(mode)
        self.broadcast_collision_detection = broadcast_collision_detection
        self._builder = ScheduleBuilder(model, self.mode)

    # ------------------------------------------------------------------
    def run(self, links: LinkSet, *, rng: RngLike = None) -> DistributedRunResult:
        """Simulate the protocol; returns the coloring and round counts."""
        gen = as_generator(rng)
        graph = self._builder.conflict_graph(links)
        classes = length_classes(links)
        n = len(links)
        colors = np.full(n, -1, dtype=int)
        result = DistributedRunResult(colors=colors)

        for class_id in sorted(classes, reverse=True):  # longest class first
            members = np.asarray(classes[class_id], dtype=int)
            rounds = self._color_class(graph, colors, members, gen)
            colors_used_in_class = len({int(colors[i]) for i in members})
            result.phases.append(
                PhaseStats(
                    class_id=class_id,
                    class_size=len(members),
                    coloring_rounds=rounds,
                    broadcast_rounds=self._broadcast_rounds(colors_used_in_class, n),
                )
            )
        self._verify(graph, colors)
        result.colors = colors
        return result

    # ------------------------------------------------------------------
    def _color_class(
        self,
        graph: ConflictGraph,
        colors: np.ndarray,
        members: np.ndarray,
        gen: np.random.Generator,
    ) -> int:
        """Randomised contention coloring of one class; returns rounds used."""
        uncolored = set(int(i) for i in members)
        rounds = 0
        while uncolored:
            rounds += 1
            if rounds > self.MAX_ROUNDS_PER_PHASE:
                raise ScheduleError("contention coloring failed to converge")
            active = [i for i in uncolored if gen.random() < 0.5]
            proposals: Dict[int, int] = {}
            for i in active:
                taken = {int(colors[j]) for j in graph.neighbors(i) if colors[j] >= 0}
                c = 0
                while c in taken:
                    c += 1
                proposals[i] = c
            # A proposal commits unless a conflicting neighbour proposed
            # the same color this round (symmetric collision).
            committed = []
            for i, c in proposals.items():
                collision = any(proposals.get(int(j)) == c for j in graph.neighbors(i))
                if not collision:
                    committed.append((i, c))
            for i, c in committed:
                colors[i] = c
                uncolored.discard(i)
        return rounds

    def _broadcast_rounds(self, colors_used: int, n: int) -> int:
        """Local-broadcast envelope from [10] (see module docstring)."""
        log_n = max(1.0, math.log2(max(n, 2)))
        if self.broadcast_collision_detection:
            return int(math.ceil(colors_used + log_n**2))
        return int(math.ceil(colors_used * log_n + log_n**2))

    @staticmethod
    def _verify(graph: ConflictGraph, colors: np.ndarray) -> None:
        if np.any(colors < 0):
            raise ScheduleError("simulation left uncolored links")
        if not is_proper_coloring(graph, colors):
            raise ScheduleError("simulation produced an improper coloring")

    def predicted_round_envelope(self, links: LinkSet, opt_per_class: int) -> float:
        """The paper's asymptotic round bound
        ``O((log n * opt + log^2 n) * log Delta)`` evaluated with unit
        constants — benchmarks compare measured rounds against this."""
        n = max(len(links), 2)
        log_n = math.log2(n)
        log_delta = max(1.0, math.log2(links.diversity))
        return (log_n * opt_per_class + log_n**2) * log_delta
