"""Multicoloring (fractional scheduling) — Section 4's motivating example.

An optimal *coloring* schedule need not be an optimal *aggregation*
schedule: on the 5-cycle, proper edge coloring needs 3 colors (rate
1/3) while the periodic feasible-set sequence
``{1,3}, {2,4}, {1,4}, {2,5}, {3,5}`` achieves rate 2/5.  This module
reproduces that gap so tests and benchmarks can exhibit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["cycle_multicoloring_demo", "MulticoloringResult"]


@dataclass(frozen=True)
class MulticoloringResult:
    """Outcome of the 5-cycle comparison.

    ``coloring_rate``   — best rate via proper coloring (1/chromatic
    index); ``multicolor_rate`` — rate of the fractional schedule;
    ``schedule`` — the periodic sequence of edge subsets achieving it.
    """

    coloring_colors: int
    coloring_rate: float
    multicolor_rate: float
    schedule: Tuple[Tuple[int, ...], ...]

    @property
    def improvement(self) -> float:
        """Rate ratio multicolor / coloring (1.2 on the 5-cycle)."""
        return self.multicolor_rate / self.coloring_rate


def _edge_conflict_graph(cycle_length: int) -> nx.Graph:
    """Line graph of the cycle C_k: edges conflict iff they share a node."""
    import networkx as nx

    cycle = nx.cycle_graph(cycle_length)
    return nx.line_graph(cycle)


def cycle_multicoloring_demo(cycle_length: int = 5) -> MulticoloringResult:
    """Compare coloring vs multicoloring rates on an odd cycle's edges.

    For odd ``k``, proper edge coloring needs 3 colors but the
    fractional chromatic number of the conflict structure is ``k/2``
    frames per ``k`` slots... i.e. rate ``2/k * (k//2)/(k//2)`` — for
    ``k = 5`` that is 2/5 versus 1/3.
    """
    if cycle_length < 3 or cycle_length % 2 == 0:
        raise ConfigurationError("demo requires an odd cycle length >= 3")
    import networkx as nx

    conflict = _edge_conflict_graph(cycle_length)
    coloring = nx.coloring.greedy_color(conflict, strategy="smallest_last")
    colors_used = 1 + max(coloring.values())

    # Periodic multicolor schedule: slot t activates edges {t, t + k//2}
    # (mod k), each a pair of non-adjacent cycle edges; over k slots
    # every edge appears exactly twice -> rate 2/k.
    k = cycle_length
    half = k // 2
    schedule: List[Tuple[int, ...]] = []
    for t in range(k):
        a, b = t % k, (t + half) % k
        # Edges a and b of the cycle are node-disjoint when |a-b| not in {0, 1, k-1}.
        schedule.append((a, b) if _edges_disjoint(a, b, k) else (a,))
    multicolor_rate = min(
        sum(1 for slot in schedule if e in slot) / len(schedule) for e in range(k)
    )
    return MulticoloringResult(
        coloring_colors=colors_used,
        coloring_rate=1.0 / colors_used,
        multicolor_rate=multicolor_rate,
        schedule=tuple(schedule),
    )


def _edges_disjoint(a: int, b: int, k: int) -> bool:
    """Whether cycle edges a=(a, a+1) and b=(b, b+1) share no node."""
    nodes_a = {a % k, (a + 1) % k}
    nodes_b = {b % k, (b + 1) % k}
    return not (nodes_a & nodes_b)
