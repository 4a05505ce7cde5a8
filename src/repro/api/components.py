"""The built-in component registries: topologies, trees, powers, schedulers.

Each registry maps a public name to a small frozen *spec* carrying the
builder callable plus the metadata the pipeline layer needs (whether a
topology consumes a seed, which power mode a scheme colors for, which
conflict-graph constants a scheduler accepts).  Registering your own
component makes it available to :class:`~repro.api.pipeline.Pipeline`,
the CLI and the sweep engine by name:

>>> from repro.api.components import topologies, register_topology
>>> from repro.geometry.generators import line_points
>>> @register_topology("unit-chain", uses_seed=False)   # doctest: +SKIP
... def _unit_chain(n, *, rng=None):
...     return line_points(range(n))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional, Tuple

from repro.api.registry import Registry
from repro.constants import DEFAULT_TAU
from repro.errors import ConfigurationError
from repro.geometry.generators import (
    cluster_points_total,
    exponential_line,
    grid_points,
    uniform_disk,
    uniform_square,
)
from repro.geometry.point import PointSet
from repro.links.linkset import LinkSet
from repro.power.oblivious import ObliviousPower
from repro.scheduling.baselines import (
    greedy_sinr_schedule,
    protocol_model_schedule,
    trivial_tdma_schedule,
)
from repro.scheduling.builder import BuildReport, PowerMode, ScheduleBuilder
from repro.scheduling.incremental import IncrementalScheduler
from repro.scheduling.schedule import Schedule
from repro.sinr.model import SINRModel
from repro.spanning.knn_graph import knn_edges, reduced_mst
from repro.spanning.latency import balanced_matching_tree
from repro.spanning.tree import AggregationTree
from repro.util.rng import RngLike

__all__ = [
    "PowerSchemeSpec",
    "SchedulerSpec",
    "TopologySpec",
    "TreeSpec",
    "power_schemes",
    "register_topology",
    "register_tree",
    "schedulers",
    "topologies",
    "trees",
]


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """A named deployment family.

    ``build(n, *, rng=None, **params)`` returns a
    :class:`~repro.geometry.point.PointSet` with exactly ``n`` points.
    ``uses_seed`` records whether the construction draws randomness —
    deterministic families ignore ``rng``, and entry points use the flag
    to warn about explicitly passed (but ignored) seeds.
    """

    name: str
    build: Callable[..., PointSet]
    uses_seed: bool = True
    description: str = ""


#: Deployment families, by name (the ``--topology`` axis).
topologies: Registry[TopologySpec] = Registry("topology")


def register_topology(
    name: str, *, uses_seed: bool = True, description: str = ""
) -> Callable:
    """Decorator registering a ``(n, *, rng=None, **params) -> PointSet``
    builder as a named topology."""

    def decorator(build: Callable[..., PointSet]) -> Callable[..., PointSet]:
        topologies.register(name, TopologySpec(name, build, uses_seed, description))
        return build

    return decorator


@register_topology("square", description="uniform in the unit square (Cor. 1)")
def _square(n: int, *, rng: RngLike = None, side: float = 1.0) -> PointSet:
    return uniform_square(n, side, rng=rng)


@register_topology("disk", description="uniform in the unit disk (Cor. 1)")
def _disk(n: int, *, rng: RngLike = None, radius: float = 1.0) -> PointSet:
    return uniform_disk(n, radius, rng=rng)


@register_topology("grid", uses_seed=False, description="regular grid, row-major trim to n")
def _grid(n: int, *, rng: RngLike = None, spacing: float = 1.0) -> PointSet:
    if n < 1:
        raise ConfigurationError(f"need at least 1 point, got {n}")
    side = max(2, math.ceil(math.sqrt(n)))
    full = grid_points(side, side, spacing)
    return PointSet(full.coords[:n], check=False)


@register_topology("clusters", description="Gaussian clusters, exactly n points")
def _clusters(
    n: int, *, rng: RngLike = None, clusters: int = 10, cluster_std: float = 0.01
) -> PointSet:
    return cluster_points_total(n, clusters, cluster_std=cluster_std, rng=rng)


@register_topology(
    "exponential", uses_seed=False, description="exponentially spaced chain (worst case)"
)
def _exponential(n: int, *, rng: RngLike = None, base: float = 2.0) -> PointSet:
    return exponential_line(n, base)


# ----------------------------------------------------------------------
# Aggregation-tree builders
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TreeSpec:
    """A named spanning-tree construction.

    ``build(points, *, sink=0, **params)`` returns an
    :class:`~repro.spanning.tree.AggregationTree` rooted at ``sink``.
    """

    name: str
    build: Callable[..., AggregationTree]
    description: str = ""


#: Aggregation-tree builders, by name (the ``--tree`` axis).  The MST is
#: the paper's default; ``matching`` and ``knn-mst`` make the Fig. 4 /
#: Prop. 3 "MST is beatable" axis runnable.
trees: Registry[TreeSpec] = Registry("tree builder")


def register_tree(name: str, *, description: str = "") -> Callable:
    """Decorator registering a ``(points, *, sink=0, **params) ->
    AggregationTree`` builder as a named tree."""

    def decorator(build: Callable[..., AggregationTree]) -> Callable[..., AggregationTree]:
        trees.register(name, TreeSpec(name, build, description))
        return build

    return decorator


@register_tree("mst", description="Euclidean MST (the paper's tree, Thm. 1)")
def _mst(points: PointSet, *, sink: int = 0, method: str = "auto") -> AggregationTree:
    return AggregationTree.mst(points, sink=sink, method=method)


@register_tree("matching", description="balanced matching tree, O(log n) depth (S3.1)")
def _matching(points: PointSet, *, sink: int = 0) -> AggregationTree:
    return balanced_matching_tree(points, sink=sink)


@register_tree("knn-mst", description="MST of the k-nearest-neighbour reduced graph")
def _knn_mst(points: PointSet, *, sink: int = 0, k: int = 3) -> AggregationTree:
    if len(points) == 1:
        return AggregationTree(points, [], sink=sink)
    k = min(int(k), len(points) - 1)
    edges = reduced_mst(points, knn_edges(points, k))
    return AggregationTree(points, edges, sink=sink)


# ----------------------------------------------------------------------
# Power schemes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PowerSchemeSpec:
    """A named power regime.

    ``mode`` selects the conflict graph and repair strategy of the
    certified pipeline (:class:`~repro.scheduling.builder.PowerMode`);
    ``tau`` pins the oblivious exponent where the name implies one
    (``None`` defers to the builder's default / a ``tau=`` override).
    """

    name: str
    mode: PowerMode
    tau: Optional[float] = None
    description: str = ""

    def builder_kwargs(self) -> dict:
        """Extra :class:`ScheduleBuilder` kwargs this scheme implies."""
        return {} if self.tau is None else {"tau": self.tau}

    def fixed_tau(self) -> float:
        """Exponent of the fixed ``P_tau`` assignment this name denotes,
        for the fixed-power baseline schedulers.  ``global`` has no fixed
        scheme, so it falls back to the canonical mean power."""
        if self.mode is PowerMode.UNIFORM:
            return 0.0
        if self.mode is PowerMode.LINEAR:
            return 1.0
        return self.tau if self.tau is not None else DEFAULT_TAU


#: Power regimes, by name (the ``--mode`` axis).
power_schemes: Registry[PowerSchemeSpec] = Registry("power mode")

power_schemes.register(
    "global",
    PowerSchemeSpec("global", PowerMode.GLOBAL, description="per-slot Neumann solve, O(log* Delta)"),
)
power_schemes.register(
    "oblivious",
    PowerSchemeSpec("oblivious", PowerMode.OBLIVIOUS, description="one P_tau scheme, O(log log Delta)"),
)
power_schemes.register(
    "uniform",
    PowerSchemeSpec("uniform", PowerMode.UNIFORM, tau=0.0, description="P_0: no power control"),
)
power_schemes.register(
    "linear",
    PowerSchemeSpec("linear", PowerMode.LINEAR, tau=1.0, description="P_1: just-enough power"),
)
power_schemes.register(
    "mean",
    PowerSchemeSpec("mean", PowerMode.OBLIVIOUS, tau=0.5, description="canonical tau=1/2 scheme [13]"),
)


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulerSpec:
    """A named link scheduler.

    ``build(links, model, power, **params)`` returns ``(schedule,
    report)`` where ``report`` is a
    :class:`~repro.scheduling.builder.BuildReport` for the certified
    pipeline and ``None`` for the baselines.  ``constants`` names the
    conflict-graph/power constants (``gamma``/``delta``/``tau``) the
    scheduler accepts; the pipeline forwards only those.
    ``carries_state`` marks delta schedulers whose build accepts
    ``prev_state=``/``link_ids=`` kwargs (the previous epoch's
    :class:`~repro.scheduling.incremental.ScheduleState`); the scenario
    runner threads carried state only into those.
    """

    name: str
    build: Callable[..., Tuple[Schedule, Optional[BuildReport]]]
    certified: bool = False
    constants: FrozenSet[str] = field(default_factory=frozenset)
    description: str = ""
    carries_state: bool = False


#: Link schedulers, by name (the ``--scheduler`` axis).
schedulers: Registry[SchedulerSpec] = Registry("scheduler")


def _certified(
    links: LinkSet,
    model: SINRModel,
    power: PowerSchemeSpec,
    *,
    gamma: Optional[float] = None,
    delta: Optional[float] = None,
    tau: Optional[float] = None,
) -> Tuple[Schedule, BuildReport]:
    kwargs = power.builder_kwargs()
    for name, value in (("gamma", gamma), ("delta", delta), ("tau", tau)):
        if value is not None:
            kwargs[name] = value
    builder = ScheduleBuilder(model, power.mode, **kwargs)
    return builder.build_with_report(links)


def _incremental_certified(
    links: LinkSet,
    model: SINRModel,
    power: PowerSchemeSpec,
    *,
    gamma: Optional[float] = None,
    delta: Optional[float] = None,
    tau: Optional[float] = None,
    prev_state=None,
    link_ids=None,
) -> Tuple[Schedule, BuildReport]:
    kwargs = power.builder_kwargs()
    for name, value in (("gamma", gamma), ("delta", delta), ("tau", tau)):
        if value is not None:
            kwargs[name] = value
    scheduler = IncrementalScheduler(model, power.mode, **kwargs)
    return scheduler.schedule(links, link_ids=link_ids, prev_state=prev_state)


def _greedy_sinr(
    links: LinkSet,
    model: SINRModel,
    power: PowerSchemeSpec,
    *,
    tau: Optional[float] = None,
) -> Tuple[Schedule, None]:
    eff_tau = tau if tau is not None else power.fixed_tau()
    scheme = ObliviousPower(eff_tau, model.alpha).rescaled_for_noise(links, model)
    return greedy_sinr_schedule(links, scheme, model), None


def _protocol_model(
    links: LinkSet, model: SINRModel, power: PowerSchemeSpec, *, guard: float = 1.0
) -> Tuple[Schedule, None]:
    return protocol_model_schedule(links, model, guard=guard), None


def _tdma(
    links: LinkSet, model: SINRModel, power: PowerSchemeSpec
) -> Tuple[Schedule, None]:
    return trivial_tdma_schedule(links, model), None


schedulers.register(
    "certified",
    SchedulerSpec(
        "certified",
        _certified,
        certified=True,
        constants=frozenset({"gamma", "delta", "tau"}),
        description="the paper's pipeline: color G_f(L), repair, certify",
    ),
)
schedulers.register(
    "incremental-certified",
    SchedulerSpec(
        "incremental-certified",
        _incremental_certified,
        certified=True,
        constants=frozenset({"gamma", "delta", "tau"}),
        description="delta scheduler: carry slots across epochs, repair the delta",
        carries_state=True,
    ),
)
schedulers.register(
    "greedy-sinr",
    SchedulerSpec(
        "greedy-sinr",
        _greedy_sinr,
        constants=frozenset({"tau"}),
        description="first-fit SINR packing under a fixed P_tau",
    ),
)
schedulers.register(
    "protocol-model",
    SchedulerSpec(
        "protocol-model",
        _protocol_model,
        description="disk-model conflict coloring (Related Work shape)",
    ),
)
schedulers.register(
    "tdma",
    SchedulerSpec("tdma", _tdma, description="one link per slot (rate 1/n fallback)"),
)
