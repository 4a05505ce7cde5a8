"""Store-mediated pure stage functions.

Each function here is the cached form of one pipeline stage: a pure
function of a :class:`~repro.api.config.PipelineConfig` (and, for the
schedule, the SINR model) routed through a :class:`StageStore`.  Calling
``schedule_for(config, store)`` resolves the whole upstream chain —
deployment, tree, link set — through the store, so any two configs
sharing a stage signature share the *same artifact object* (and, for
link sets, the same kernel cache).

Scenario epochs (:mod:`repro.scenarios.runner`) resolve through the
same functions, with their epoch signature as ``scenario`` (folded into
every key) and their own points, tree build, links and carried state;
no module outside :mod:`repro.store` builds a key or names a codec.

Disk codecs keep persisted payloads compact and reconstructible:

* ``deploy``   — the raw coordinate array;
* ``tree``     — the edge list and sink (points come from the
  deployment entry, so a tree file is a few hundred bytes);
* ``links``    — memory-only (derived from the tree in O(n); its kernel
  cache is process-local state that should not be persisted);
* ``schedule`` — slot membership/power tuples plus the build report
  (revalidation is skipped on decode: the schedule was certified when
  built, and the envelope's schema/key checks catch foreign payloads).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.api.components import power_schemes, schedulers, topologies, trees
from repro.errors import ConfigurationError
from repro.geometry.point import PointSet
from repro.scheduling.builder import BuildReport, PowerMode
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.model import SINRModel
from repro.spanning.tree import AggregationTree
from repro.store import keys
from repro.store.store import StageStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import PipelineConfig
    from repro.links.linkset import LinkSet
    from repro.scheduling.builder import BuildReport as _BuildReport
    from repro.scheduling.incremental import ScheduleState

__all__ = [
    "build_schedule_direct",
    "canonical_deployment",
    "canonical_links",
    "deployment_for",
    "links_for",
    "schedule_for",
    "tree_for",
]


# ----------------------------------------------------------------------
# deploy
# ----------------------------------------------------------------------
def _encode_deployment(points: PointSet) -> Any:
    """Disk payload of a deployment — the single write-side codec for
    the ``deploy`` stage."""
    return np.asarray(points.coords)


def _decode_deployment(payload: Any) -> PointSet:
    return PointSet(np.asarray(payload, dtype=float), check=False)


def deployment_for(
    config: "PipelineConfig",
    store: StageStore,
    *,
    scenario: Optional[Dict[str, Any]] = None,
    points: Optional[PointSet] = None,
) -> PointSet:
    """The config's deployment, built at most once per store.

    A scenario epoch passes its signature and its derived ``points``,
    kept under the epoch key; without a signature ``points`` is unused.
    """
    spec = topologies.get(config.topology)

    def build() -> PointSet:
        if scenario is None:
            return spec.build(config.n, rng=config.seed, **config.topology_params)
        if points is None:
            raise ConfigurationError("a scenario-keyed deployment needs its points")
        return points

    return store.get_or_build(
        "deploy",
        keys.deploy_key(config, scenario),
        build,
        encode=_encode_deployment,
        decode=_decode_deployment,
    )


def canonical_deployment(
    config: "PipelineConfig", store: StageStore, points: PointSet
) -> bool:
    """Whether ``points`` is the store's artifact for this config — the
    guard that keeps explicitly supplied deployments out of the cache."""
    return store.peek("deploy", keys.deploy_key(config)) is points


# ----------------------------------------------------------------------
# tree (+ links, primed alongside)
# ----------------------------------------------------------------------
def _encode_tree(tree: AggregationTree) -> Dict[str, Any]:
    """Disk payload of a tree (edge list + sink; points come from the
    deployment entry) — the single write-side codec for ``tree``."""
    return {
        "edges": [[int(u), int(v)] for u, v in tree.edges],
        "sink": int(tree.sink),
    }


def _decode_tree(payload: Dict[str, Any], points: PointSet) -> AggregationTree:
    return AggregationTree(
        points, [tuple(e) for e in payload["edges"]], sink=payload["sink"]
    )


def tree_for(
    config: "PipelineConfig",
    store: StageStore,
    *,
    scenario: Optional[Dict[str, Any]] = None,
    points: Optional[PointSet] = None,
    build: Optional[Callable[[], AggregationTree]] = None,
) -> AggregationTree:
    """The config's aggregation tree over its cached deployment.

    A scenario epoch passes its signature, its deployment ``points``
    and its tree ``build``; without a signature both are unused.
    """
    if scenario is None:
        points = deployment_for(config, store)
        spec = trees.get(config.tree)
        build = partial(spec.build, points, sink=config.sink, **config.tree_params)
    if points is None or build is None:
        raise ConfigurationError("a scenario-keyed tree needs its points and build")
    tree = store.get_or_build(
        "tree",
        keys.tree_key(config, scenario),
        build,
        encode=_encode_tree,
        decode=lambda payload: _decode_tree(payload, points),
    )
    # Prime the links stage so downstream identity checks and counters
    # see one canonical LinkSet per tree (memory-only: no codec).
    store.get_or_build("links", keys.links_key(config, scenario), tree.links)
    return tree


def links_for(config: "PipelineConfig", store: StageStore) -> "LinkSet":
    """The config's convergecast link set (shared kernel cache included)."""
    tree = tree_for(config, store)
    return store.get_or_build("links", keys.links_key(config), tree.links)


def canonical_links(
    config: "PipelineConfig", store: StageStore, links: "LinkSet"
) -> bool:
    """Whether ``links`` is the store's artifact for this config."""
    return store.peek("links", keys.links_key(config)) is links


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
def build_schedule_direct(
    config: "PipelineConfig",
    links: "LinkSet",
    model: SINRModel,
    extra: Optional[Dict[str, Any]] = None,
) -> Tuple[Schedule, Optional["_BuildReport"]]:
    """One uncached scheduler invocation with the config's constants.

    This is the single site that assembles scheduler kwargs (explicit
    ``scheduler_params`` plus whichever of ``gamma``/``delta``/``tau``
    the scheduler declares); both the cached path below and
    :meth:`Pipeline.build_schedule` delegate here.  ``extra`` carries
    per-call kwargs that are not config state — the scenario runner
    threads a delta scheduler's ``prev_state``/``link_ids`` through it.

    The config's numeric backend is pinned onto the link set's kernel
    cache here, so every scheduler (and every downstream feasibility
    probe on the same link set) runs on it.  Backends are bit-identical
    by contract, which is why this pin does not appear in any stage key.
    """
    links.kernel(backend=config.backend)
    scheduler = schedulers.get(config.scheduler)
    power = power_schemes.get(config.power)
    params = dict(config.scheduler_params)
    for name in scheduler.constants:
        value = getattr(config, name)
        if value is not None:
            params.setdefault(name, value)
    if extra:
        params.update(extra)
    return scheduler.build(links, model, power, **params)


def _encode_schedule(
    built: Tuple[Schedule, Optional["_BuildReport"]]
) -> Dict[str, Any]:
    schedule, report = built
    payload: Dict[str, Any] = {
        "slots": [
            [list(slot.link_indices), list(slot.powers)] for slot in schedule.slots
        ],
        "report": None,
    }
    if report is not None:
        payload["report"] = {
            "mode": report.mode.value,
            "conflict_graph": report.conflict_graph,
            "diversity": report.diversity,
            "initial_colors": report.initial_colors,
            "final_slots": report.final_slots,
            "split_classes": report.split_classes,
            "slot_sizes": list(report.slot_sizes),
        }
        if report.repair_cost is not None:
            payload["report"]["repair_cost"] = dict(report.repair_cost)
    return payload


def _decode_schedule(
    payload: Dict[str, Any], links: "LinkSet", model: SINRModel
) -> Tuple[Schedule, Optional["_BuildReport"]]:
    slots = [
        Slot(tuple(int(i) for i in indices), tuple(float(p) for p in powers))
        for indices, powers in payload["slots"]
    ]
    schedule = Schedule(links, slots, model, validate=False)
    report = None
    if payload["report"] is not None:
        data = dict(payload["report"])
        data["mode"] = PowerMode(data["mode"])
        report = BuildReport(**data)
    return schedule, report


def schedule_for(
    config: "PipelineConfig",
    store: StageStore,
    model: Optional[SINRModel] = None,
    *,
    scenario: Optional[Dict[str, Any]] = None,
    links: Optional["LinkSet"] = None,
    carried: Optional["ScheduleState"] = None,
    link_ids: Optional[Any] = None,
) -> Tuple[Schedule, Optional["_BuildReport"]]:
    """The config's certified ``(schedule, report)``, stage-cached.

    A scenario epoch passes its signature and its ``links`` (already
    resolved by :func:`tree_for`); a delta scheduler's ``carried`` state
    and ``link_ids`` reach the scheduler, and the state's digest splits
    the key, so a resumed run replays the identical carried chain.
    """
    model = model or SINRModel(alpha=config.alpha, beta=config.beta)
    if links is None:
        if scenario is not None:
            raise ConfigurationError("a scenario-keyed schedule needs its links")
        links = links_for(config, store)
    extra = None if carried is None else {"prev_state": carried, "link_ids": link_ids}
    digest = None if carried is None else carried.signature()
    return store.get_or_build(
        "schedule",
        keys.schedule_key(config, model, scenario, digest),
        lambda: build_schedule_direct(config, links, model, extra),
        encode=_encode_schedule,
        decode=lambda payload: _decode_schedule(payload, links, model),
    )
