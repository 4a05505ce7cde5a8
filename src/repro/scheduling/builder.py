"""The paper's scheduling pipeline as a builder.

``tree links -> conflict graph -> greedy first-fit coloring -> repair ->
certified periodic schedule``.

Modes
-----
* ``PowerMode.GLOBAL``    — color ``G_arb`` (= ``G_{gamma log}``); each
  slot gets a bespoke power vector from the Neumann solve.  Theorem 1
  predicts ``O(log* Delta)`` slots on MSTs.
* ``PowerMode.OBLIVIOUS`` — color ``G_obl`` (= ``G^delta_gamma``); all
  slots share one ``P_tau`` scheme.  Theorem 1 predicts
  ``O(log log Delta)`` slots on MSTs.
* ``PowerMode.UNIFORM`` / ``PowerMode.LINEAR`` — fixed ``P_0`` / ``P_1``
  schemes colored on ``G_obl``; no near-constant guarantee exists for
  these (Section 1: without power control only a linear rate is
  guaranteed), so repair may split heavily — which is the point of the
  baseline benchmarks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, NoReturn, Optional, Sequence

import numpy as np

from repro.coloring.greedy import greedy_coloring
from repro.coloring.validation import color_classes
from repro.conflict.graph import ConflictGraph, arbitrary_graph, oblivious_graph
from repro.constants import DEFAULT_DELTA, DEFAULT_GAMMA, DEFAULT_TAU
from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.power.oblivious import ObliviousPower
from repro.scheduling.repair import (
    split_into_feasible_slots,
    split_into_feasible_slots_fixed_power,
)
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.model import SINRModel
from repro.sinr.powercontrol import feasible_power_assignment

# Unused by the build itself, but kept in this namespace: perfbench's
# layer spans wrap it here, beside the split passes and
# feasible_power_assignment (tests/test_perfbench_sites.py).
from repro.sinr.powercontrol import is_feasible_some_power  # noqa: F401
from repro.spanning.tree import AggregationTree
from repro.util.validation import check_finite

__all__ = ["PowerMode", "ScheduleBuilder", "BuildReport"]


class PowerMode(str, enum.Enum):
    """Power-control mode of the scheduling pipeline.

    ``PowerMode(name)`` is the one conversion from a mode name: an
    unknown name raises :class:`~repro.errors.ConfigurationError`
    listing the valid modes (via :meth:`_missing_`), not a bare
    ``ValueError``.
    """

    GLOBAL = "global"
    OBLIVIOUS = "oblivious"
    UNIFORM = "uniform"
    LINEAR = "linear"

    @classmethod
    def _missing_(cls, value: object) -> NoReturn:
        valid = ", ".join(mode.value for mode in cls)
        raise ConfigurationError(f"unknown power mode {value!r}; valid modes: {valid}")


@dataclass
class BuildReport:
    """Diagnostics from one builder run.

    ``initial_colors`` is the greedy chromatic count on the conflict
    graph; ``final_slots`` the certified schedule length after repair;
    ``split_classes`` how many color classes the repair pass had to
    split (0 when the conflict-graph constants were already sufficient).
    ``repair_cost`` is populated only by the incremental delta scheduler
    (:mod:`repro.scheduling.incremental`): the
    :class:`~repro.scheduling.incremental.RepairCost` counters as a
    plain dict.
    """

    mode: PowerMode
    conflict_graph: str
    diversity: float
    initial_colors: int
    final_slots: int
    split_classes: int
    slot_sizes: List[int] = field(default_factory=list)
    repair_cost: Optional[Dict[str, object]] = None

    @property
    def rate(self) -> float:
        """Aggregation rate ``1/final_slots``."""
        return 1.0 / self.final_slots


class ScheduleBuilder:
    """Builds certified periodic schedules for link sets and trees.

    Parameters
    ----------
    model:
        SINR parameters.
    mode:
        Power-control mode (see :class:`PowerMode`).
    gamma:
        Conflict-graph threshold constant.  Larger gamma -> sparser
        concurrency -> fewer repairs but more colors.
    delta:
        Exponent of the oblivious conflict graph.
    tau:
        Oblivious power exponent (``OBLIVIOUS`` mode only).

    Every kernel query reads the link set's attached cache as it is
    configured; ``links.kernel(block_size=...)`` sets its block size.
    """

    def __init__(
        self,
        model: SINRModel,
        mode: PowerMode | str = PowerMode.GLOBAL,
        *,
        gamma: float = DEFAULT_GAMMA,
        delta: float = DEFAULT_DELTA,
        tau: float = DEFAULT_TAU,
    ) -> None:
        self.model = model
        self.mode = PowerMode(mode)
        self.gamma = check_finite("gamma", gamma)
        self.delta = check_finite("delta", delta)
        self.tau = check_finite("tau", tau)
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")

    # ------------------------------------------------------------------
    def conflict_graph(self, links: LinkSet) -> ConflictGraph:
        """The conflict graph appropriate for the configured mode."""
        if self.mode is PowerMode.GLOBAL:
            return arbitrary_graph(links, self.gamma, self.model.alpha)
        return oblivious_graph(links, self.gamma, self.delta)

    def _power_scheme(self, links: LinkSet) -> Optional[ObliviousPower]:
        """The fixed scheme for oblivious-family modes (None for GLOBAL)."""
        if self.mode is PowerMode.GLOBAL:
            return None
        tau = {
            PowerMode.OBLIVIOUS: self.tau,
            PowerMode.UNIFORM: 0.0,
            PowerMode.LINEAR: 1.0,
        }[self.mode]
        scheme = ObliviousPower(tau, self.model.alpha)
        return scheme.rescaled_for_noise(links, self.model)

    # ------------------------------------------------------------------
    def build(self, links: LinkSet) -> Schedule:
        """Certified schedule for an arbitrary link set."""
        schedule, _report = self.build_with_report(links)
        return schedule

    def build_for_tree(self, tree: AggregationTree) -> Schedule:
        """Certified schedule for a rooted aggregation tree."""
        return self.build(tree.links())

    def build_with_report(self, links: LinkSet) -> tuple[Schedule, BuildReport]:
        """Full pipeline returning the schedule plus diagnostics.

        Every feasibility probe routes through the link set's kernel
        cache: the global mode packs each color class from one
        affectance block, the fixed-power modes with the incremental
        row-sum repair pass.
        """
        graph = self.conflict_graph(links)
        colors = greedy_coloring(graph)
        classes = color_classes(colors)
        scheme = self._power_scheme(links)
        power_vec = None if scheme is None else scheme.powers(links)

        slots: List[Slot] = []
        split_count = 0
        for color in sorted(classes):
            if power_vec is None:
                pieces = split_into_feasible_slots(links, classes[color], self.model)
            else:
                pieces = split_into_feasible_slots_fixed_power(
                    links, classes[color], power_vec, self.model
                )
            if len(pieces) > 1:
                split_count += 1
            for piece in pieces:
                slots.append(self._certify_slot(links, piece, power_vec))

        schedule = Schedule(links, slots, self.model)
        report = BuildReport(
            mode=self.mode,
            conflict_graph=graph.threshold.name,
            diversity=links.diversity,
            initial_colors=len(classes),
            final_slots=len(slots),
            split_classes=split_count,
            slot_sizes=[len(s) for s in slots],
        )
        return schedule, report

    def _certify_slot(
        self, links: LinkSet, indices: Sequence[int], power_vec: Optional[np.ndarray]
    ) -> Slot:
        """Attach concrete powers to a feasible index set."""
        idx = [int(i) for i in indices]
        if power_vec is None:
            powers = feasible_power_assignment(links, self.model, idx)
        else:
            powers = np.asarray([power_vec[i] for i in idx], dtype=float)
        return Slot.from_arrays(idx, powers)

    def __repr__(self) -> str:
        return (
            f"ScheduleBuilder(mode={self.mode.value}, gamma={self.gamma}, "
            f"delta={self.delta}, tau={self.tau})"
        )
