"""Declarative sweep specifications.

A :class:`SweepSpec` is the full description of a scenario family: the
cartesian grid ``topology x n x power-mode x tree x scheduler x
scenario x alpha x beta x seed``.  Every named axis is validated eagerly
against the component registries (:mod:`repro.api`,
:mod:`repro.scenarios`) — so a sweep never dies halfway through on a
malformed axis, and user-registered components are sweepable by name.  Cells enumerate deterministically — the enumeration order *is*
the canonical cell order used for JSONL persistence and resume
manifests.

>>> spec = SweepSpec(topologies=("square",), ns=(50, 100), modes=("global",))
>>> [c.cell_id for c in spec.cells()]           # doctest: +SKIP
['square/n50/global/mst/certified/a3/b1/s0', ...]
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, fields
from typing import Dict, Iterator, Sequence, Tuple

from repro.api.components import power_schemes, schedulers, topologies, trees
from repro.api.measurements import measurements
from repro.backend import check_backend
from repro.errors import ConfigurationError
from repro.scenarios.transforms import scenarios as scenario_registry
from repro.scheduling.builder import PowerMode
from repro.util.validation import check_finite

__all__ = ["CellSpec", "SweepSpec", "MEASUREMENTS"]

#: Measurements a sweep cell can record (the measurement registry's
#: names at import time).  ``schedule`` runs the full builder pipeline
#: (slots, rate, optional simulation); ``g1`` computes the Theorem-2
#: quantities (chi(G1) and the refinement constant).
MEASUREMENTS = measurements.names()


def _integer(name: str, value: object) -> int:
    """``value`` as an ``int``; :class:`ConfigurationError` unless it is
    an integer (numpy integers included, ``bool`` not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CellSpec:
    """One point of the sweep grid — everything a worker needs.

    ``seed`` is the absolute deployment seed (``base_seed + seed
    index``); the same value seeds the simulation RNG, so a cell is a
    pure function of its spec.
    """

    topology: str
    n: int
    mode: str
    alpha: float
    beta: float
    seed: int
    tree: str = "mst"
    scheduler: str = "certified"
    num_frames: int = 0
    measure: Tuple[str, ...] = ("schedule",)
    scenario: str = "static"
    epochs: int = 1
    #: Numeric backend (:mod:`repro.backend`).  Deliberately NOT part of
    #: :attr:`cell_id`: backends are bit-identical by contract, so rows
    #: produced under different backends are interchangeable and resume
    #: across backend switches.
    backend: str = "dense-numpy"

    @property
    def is_dynamic(self) -> bool:
        """Whether this cell runs a scenario timeline on top of the
        static pipeline.  The default ``static``/1-epoch combination is
        exactly the pre-scenario cell (same id, same record)."""
        return self.scenario != "static" or self.epochs != 1

    @property
    def cell_id(self) -> str:
        """Stable identifier used in JSONL rows and resume manifests.

        Dynamic cells append a ``/scn-<scenario>-e<epochs>`` segment;
        static single-epoch cells keep the pre-scenario id, so existing
        sweep files resume unchanged.
        """
        base = (
            f"{self.topology}/n{self.n}/{self.mode}"
            f"/{self.tree}/{self.scheduler}"
            f"/a{self.alpha:g}/b{self.beta:g}/s{self.seed}"
        )
        if self.is_dynamic:
            base += f"/scn-{self.scenario}-e{self.epochs}"
        return base

    @property
    def legacy_cell_id(self) -> str:
        """The pre-tree/scheduler id format (``topo/nN/mode/aA/bB/sS``).

        Only meaningful for cells using the default ``mst``/``certified``
        components — the only combination old sweep files can contain;
        the engine uses it to resume files written before the registry
        redesign instead of re-running (and duplicating) their cells.
        """
        return (
            f"{self.topology}/n{self.n}/{self.mode}"
            f"/a{self.alpha:g}/b{self.beta:g}/s{self.seed}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid of scenarios to run.

    Parameters
    ----------
    topologies:
        Deployment families (names from :data:`repro.api.topologies`).
    ns:
        Node counts (each >= 2 so the tree has at least one link).
    modes:
        Power schemes (names from :data:`repro.api.power_schemes`).
    trees:
        Aggregation-tree builders (names from :data:`repro.api.trees`).
    schedulers:
        Link schedulers (names from :data:`repro.api.schedulers`).
    alphas, betas:
        SINR model parameter axes (paper constraints: ``alpha > 2``,
        ``beta > 0``).
    seeds:
        Number of random repetitions per grid point; cell ``k`` of a
        grid point uses deployment seed ``base_seed + k``.
    base_seed:
        Offset of the seed axis; two sweeps with different base seeds
        draw disjoint (and individually reproducible) instances.
    num_frames:
        Frames of convergecast to simulate per cell (0 = schedule only).
    measure:
        Which measurements to record (names from
        :data:`repro.api.measurements`).
    scenarios:
        Dynamic scenario transforms to run per grid point (names from
        :data:`repro.scenarios.scenarios`).  The default ``static``
        keeps cells identical to the pre-scenario engine.
    epochs:
        Timeline length for dynamic cells; ``static`` with ``epochs ==
        1`` is the plain one-shot pipeline.
    backend:
        Numeric backend (:mod:`repro.backend`) every cell runs on.  A
        single value, not an axis: backends are bit-identical by
        contract, so a backend axis would only duplicate rows.
    """

    topologies: Tuple[str, ...]
    ns: Tuple[int, ...]
    modes: Tuple[str, ...]
    trees: Tuple[str, ...] = ("mst",)
    schedulers: Tuple[str, ...] = ("certified",)
    alphas: Tuple[float, ...] = (3.0,)
    betas: Tuple[float, ...] = (1.0,)
    seeds: int = 1
    base_seed: int = 0
    num_frames: int = 0
    measure: Tuple[str, ...] = ("schedule",)
    scenarios: Tuple[str, ...] = ("static",)
    epochs: int = 1
    backend: str = "dense-numpy"

    def __post_init__(self) -> None:
        # Normalise sequences to tuples so specs hash and compare.
        axis_names = (
            "topologies", "ns", "modes", "trees", "schedulers",
            "alphas", "betas", "measure", "scenarios",
        )
        for name in axis_names:
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise ConfigurationError(f"{name} must be a sequence, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        # PowerMode enum members are accepted on the mode axis; fold them
        # to their canonical string names so cell_ids and persisted rows
        # stay uniform.
        object.__setattr__(
            self,
            "modes",
            tuple(m.value if isinstance(m, PowerMode) else m for m in self.modes),
        )
        # Type-check before _require_axis hashes the axis values, so a
        # malformed JSON spec fails here, not as a TypeError later.
        for name in ("seeds", "base_seed", "num_frames", "epochs"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "ns", tuple(_integer("each n", n) for n in self.ns))
        for name in ("alphas", "betas"):
            for value in getattr(self, name):
                check_finite(name, value)
        for name in ("topologies", "modes", "trees", "schedulers", "measure", "scenarios"):
            for value in getattr(self, name):
                if not isinstance(value, str):
                    raise ConfigurationError(f"{name} must hold names, got {value!r}")
        for name in axis_names:
            self._require_axis(name, getattr(self, name))
        # Registry-backed name validation: unknown names fail eagerly
        # with the full list of valid choices.
        for topology in self.topologies:
            topologies.get(topology)
        for mode in self.modes:
            power_schemes.get(mode)
        for tree in self.trees:
            trees.get(tree)
        for scheduler in self.schedulers:
            schedulers.get(scheduler)
        for m in self.measure:
            measurements.get(m)
        for scenario in self.scenarios:
            scenario_registry.get(scenario)
        check_backend(self.backend)
        if self.epochs < 1:
            raise ConfigurationError(
                f"epochs must be a positive int, got {self.epochs!r}"
            )
        for n in self.ns:
            if n < 2:
                raise ConfigurationError(f"each n must be an int >= 2, got {n!r}")
        for alpha in self.alphas:
            if alpha <= 2:
                raise ConfigurationError(f"alpha must exceed 2, got {alpha}")
        for beta in self.betas:
            if beta <= 0:
                raise ConfigurationError(f"beta must be positive, got {beta}")
        if self.seeds < 1:
            raise ConfigurationError(f"seeds must be >= 1, got {self.seeds}")
        if self.num_frames < 0:
            raise ConfigurationError(f"num_frames must be >= 0, got {self.num_frames}")

    @staticmethod
    def _require_axis(name: str, values: Sequence) -> None:
        if len(values) == 0:
            raise ConfigurationError(f"{name} must not be empty")
        if len(set(values)) != len(values):
            raise ConfigurationError(f"{name} contains duplicates: {values!r}")

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Grid size: product of all axis lengths."""
        return (
            len(self.topologies)
            * len(self.ns)
            * len(self.modes)
            * len(self.trees)
            * len(self.schedulers)
            * len(self.scenarios)
            * len(self.alphas)
            * len(self.betas)
            * self.seeds
        )

    def cells(self) -> Iterator[CellSpec]:
        """Enumerate cells in canonical (deterministic) order.

        The nesting order is topology -> n -> mode -> tree -> scheduler
        -> scenario -> alpha -> beta -> seed, matching the axis order of
        the dataclass fields.
        """
        for topology in self.topologies:
            for n in self.ns:
                for mode in self.modes:
                    for tree in self.trees:
                        for scheduler in self.schedulers:
                            for scenario in self.scenarios:
                                for alpha in self.alphas:
                                    for beta in self.betas:
                                        for k in range(self.seeds):
                                            yield CellSpec(
                                                topology=topology,
                                                n=n,
                                                mode=mode,
                                                alpha=alpha,
                                                beta=beta,
                                                seed=self.base_seed + k,
                                                tree=tree,
                                                scheduler=scheduler,
                                                num_frames=self.num_frames,
                                                measure=self.measure,
                                                scenario=scenario,
                                                epochs=self.epochs,
                                                backend=self.backend,
                                            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form, for logging or re-creating a sweep."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepSpec":
        """Inverse of :meth:`to_dict` (tolerates JSON's lists-for-tuples)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SweepSpec fields: {sorted(unknown)}; "
                f"valid fields: {sorted(known)}"
            )
        missing = [
            f.name
            for f in fields(cls)
            if f.default is MISSING
            and f.default_factory is MISSING
            and f.name not in data
        ]
        if missing:
            raise ConfigurationError(f"missing required SweepSpec fields: {missing}")
        return cls(**data)
