"""The registry-backed pipeline: one config in, one artifact out.

A :class:`Pipeline` resolves a :class:`~repro.api.config.PipelineConfig`
against the component registries at construction (so misconfigurations
fail before any work) and then runs

``deploy -> tree -> links -> schedule -> (simulate)``

returning a provenance-stamped :class:`RunArtifact`.  The stages are
also exposed individually (:meth:`Pipeline.deploy`,
:meth:`Pipeline.build_tree`, :meth:`Pipeline.build_schedule`) so
callers like the sweep engine can skip or reorder work.

Since the Execution-API-v2 redesign every stage is a *store-mediated
pure function* (:mod:`repro.store.stages`): stage artifacts are cached
in a content-addressed :class:`~repro.store.StageStore` keyed by the
config fields the stage actually reads, so two configs differing only
in, say, ``alpha`` share one deployment and one tree.  ``config.seed``
is the one seed of a run.  Explicitly supplied deployments bypass the
store — only config-derived artifacts are ever cached — and the per-run
cache counters land in ``RunArtifact.provenance["store"]``.

>>> from repro.api import Pipeline, PipelineConfig
>>> artifact = Pipeline(PipelineConfig(topology="grid", n=9)).run()
>>> artifact.num_slots >= 1
True
>>> artifact.provenance["components"]["tree"]
'mst'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro._version import __version__
from repro.aggregation.functions import SUM, AggregationFunction
from repro.aggregation.simulator import SimulationResult
from repro.api.config import PipelineConfig
from repro.api.components import power_schemes, schedulers, topologies, trees
from repro.core.theory import predicted_slots
from repro.geometry.point import PointSet
from repro.links.linkset import LinkSet
from repro.scheduling.builder import BuildReport
from repro.scheduling.schedule import Schedule
from repro.sinr.model import SINRModel
from repro.spanning.tree import AggregationTree
from repro.store import stages as _stages
from repro.store.store import StageStore, get_default_store

__all__ = ["Pipeline", "RunArtifact"]


@dataclass
class RunArtifact:
    """Everything one pipeline run produced, provenance included.

    ``report`` is ``None`` for schedulers outside the certified pipeline
    (they produce a schedule but no coloring/repair diagnostics), and
    ``simulation`` is ``None`` when ``num_frames == 0``.
    ``provenance`` is a JSON-serialisable dict — the config round-trip
    plus the resolved component names, the library version, and the
    stage store's hit/build counter delta for this run — suitable for
    embedding in JSONL rows or experiment logs.
    """

    config: PipelineConfig
    points: PointSet
    tree: AggregationTree
    schedule: Schedule
    report: Optional[BuildReport]
    simulation: Optional[SimulationResult]
    predicted_slots: float
    provenance: Dict[str, Any]

    @property
    def links(self) -> LinkSet:
        return self.tree.links()

    @property
    def num_slots(self) -> int:
        return self.schedule.num_slots

    @property
    def rate(self) -> float:
        return self.schedule.rate

    @property
    def slots_vs_prediction(self) -> float:
        """Measured / predicted slot ratio (the big-O "constant")."""
        return self.num_slots / self.predicted_slots

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"nodes={len(self.points)} sink={self.tree.sink} "
            f"tree={self.config.tree} tree_height={self.tree.height()}",
            f"mode={self.config.power} scheduler={self.config.scheduler} "
            f"diversity={self.links.diversity:.3g}",
        ]
        if self.report is not None:
            lines.append(
                f"slots={self.num_slots} (greedy colors={self.report.initial_colors}, "
                f"repaired classes={self.report.split_classes}) rate=1/{self.num_slots}"
            )
        else:
            lines.append(f"slots={self.num_slots} rate=1/{self.num_slots}")
        lines.append(
            f"predicted slots ~ {self.predicted_slots:.2f} "
            f"(measured/predicted = {self.slots_vs_prediction:.2f})"
        )
        if self.simulation is not None:
            sim = self.simulation
            lines.append(
                f"simulated: frames={sim.frames_completed}/{sim.frames_injected} "
                f"mean_latency={sim.mean_latency:.1f} max_backlog={sim.max_backlog} "
                f"values_ok={sim.values_correct}"
            )
        return "\n".join(lines)


class Pipeline:
    """A configured, registry-resolved run of the full pipeline.

    Parameters
    ----------
    config:
        The declarative run description; all component names are
        resolved here, eagerly.
    model:
        Optional explicit :class:`SINRModel` overriding the config's
        ``alpha``/``beta`` (for models carrying noise or margin
        parameters the config does not encode).  Models that differ
        from the config's parameters key their own schedule-cache
        entries.
    store:
        The :class:`~repro.store.StageStore` mediating stage
        computation; ``None`` uses the process-wide store
        (:func:`~repro.store.get_default_store`).
    """

    def __init__(
        self,
        config: PipelineConfig,
        *,
        model: Optional[SINRModel] = None,
        store: Optional[StageStore] = None,
    ) -> None:
        self.config = config
        self.topology = topologies.get(config.topology)
        self.tree_builder = trees.get(config.tree)
        self.power = power_schemes.get(config.power)
        self.scheduler = schedulers.get(config.scheduler)
        self.model = model or SINRModel(alpha=config.alpha, beta=config.beta)
        self.store = get_default_store() if store is None else store

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def deploy(self) -> PointSet:
        """The config's deployment, resolved through the stage store."""
        return _stages.deployment_for(self.config, self.store)

    def build_tree(self, points: PointSet) -> AggregationTree:
        """Build the aggregation tree over an explicit deployment.

        When ``points`` is the store's own deployment artifact for this
        config, the tree is store-mediated too; foreign point sets build
        directly so the cache never aliases them.
        """
        if _stages.canonical_deployment(self.config, self.store, points):
            return _stages.tree_for(self.config, self.store)
        return self.tree_builder.build(
            points, sink=self.config.sink, **self.config.tree_params
        )

    def build_schedule(self, links: LinkSet) -> Tuple[Schedule, Optional[BuildReport]]:
        """Schedule a link set with the configured scheduler.

        The ``gamma``/``delta``/``tau`` constants are forwarded only to
        schedulers that declare them in their spec.  Canonical link sets
        (those derived from this config through the store) resolve
        through the schedule cache.
        """
        if _stages.canonical_links(self.config, self.store, links):
            return _stages.schedule_for(self.config, self.store, model=self.model)
        return _stages.build_schedule_direct(self.config, links, self.model)

    # ------------------------------------------------------------------
    def run(
        self,
        points: Optional[PointSet] = None,
        *,
        function: AggregationFunction = SUM,
    ) -> RunArtifact:
        """Run the whole pipeline and return the stamped artifact.

        Parameters
        ----------
        points:
            An explicit deployment; ``None`` builds one from the
            configured topology.
        function:
            The aggregate computed during simulation, whose readings
            are drawn from ``config.seed``.
        """
        explicit = points is not None
        before = self.store.stats.snapshot()
        pts = points if explicit else self.deploy()
        tree = self.build_tree(pts)
        links = tree.links()
        schedule, report = self.build_schedule(links)
        prediction = predicted_slots(self.power.mode, links.diversity, len(pts))
        simulation = None
        if self.config.num_frames > 0:
            from repro.aggregation.simulator import AggregationSimulator

            simulation = AggregationSimulator(tree, schedule, function).run(
                self.config.num_frames, rng=self.config.seed
            )
        provenance = self.provenance(explicit_points=explicit)
        provenance["store"] = self.store.stats.delta(before)
        return RunArtifact(
            config=self.config,
            points=pts,
            tree=tree,
            schedule=schedule,
            report=report,
            simulation=simulation,
            predicted_slots=prediction,
            provenance=provenance,
        )

    def provenance(self, *, explicit_points: bool = False) -> Dict[str, Any]:
        """The JSON-serialisable record of what this pipeline runs."""
        return {
            "config": self.config.to_dict(),
            "components": {
                "topology": None if explicit_points else self.topology.name,
                "tree": self.tree_builder.name,
                "power": self.power.name,
                "power_mode": self.power.mode.value,
                "scheduler": self.scheduler.name,
                "backend": self.config.backend,
            },
            "version": __version__,
        }

    def __repr__(self) -> str:
        return (
            f"Pipeline(topology={self.config.topology!r}, tree={self.config.tree!r}, "
            f"power={self.config.power!r}, scheduler={self.config.scheduler!r}, "
            f"n={self.config.n})"
        )
