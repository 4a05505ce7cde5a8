"""The scenario runner's own stage resolvers: the reference for epochs
resolved through :mod:`repro.store.stages`.

:class:`ResolverScenarioRunner` is a :class:`ScenarioRunner` whose
``run`` loop, epoch-state record and three store resolvers are the
earlier code, kept verbatim: each resolver rebuilt the stage key with
:mod:`repro.store.keys` and the disk codecs of
:mod:`repro.store.stages` itself, and ``_resolve_schedule`` looked the
links stage up a second time on base-keyed epochs.  Everything else
(tree policy, violation counts, simulation) is inherited.

``tests/test_scenario_resolvers_differential.py`` asserts that both
runners return the same ``ScenarioResult``, field by field, with one
fewer ``links`` hit per base-keyed epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.pipeline import Pipeline, RunArtifact
from repro.errors import ConfigurationError
from repro.geometry.point import PointSet
from repro.scenarios.repair import edge_ids
from repro.scenarios.runner import EpochResult, ScenarioResult, ScenarioRunner
from repro.scenarios.timeline import EpochInstance
from repro.scheduling.incremental import ScheduleState, link_ids_for_links
from repro.spanning.tree import AggregationTree
from repro.store import keys, stages

__all__ = ["ResolverScenarioRunner"]


@dataclass
class _EpochState:
    """What the runner carries from one epoch to the next."""

    points: PointSet
    tree: AggregationTree
    edge_id_set: frozenset
    sig: Optional[Dict[str, Any]]  # scenario signature (None = base keys)


class ResolverScenarioRunner(ScenarioRunner):
    """:class:`ScenarioRunner` with the per-runner stage resolvers."""

    # ------------------------------------------------------------------
    # Store-mediated epoch stages
    # ------------------------------------------------------------------
    def _resolve_deploy(
        self, inst: EpochInstance, prev: _EpochState, sig: Optional[Dict]
    ) -> PointSet:
        store = self.store
        if sig is None:
            return stages.deployment_for(self.config, store)
        if sig != prev.sig:
            # Re-resolve the epoch's *input* — the previous deployment —
            # through the store: counts the chain in the hit counters
            # and backfills a disk tier that lacks the entry.
            prev_points = prev.points
            store.get_or_build(
                "deploy",
                keys.deploy_key(self.config, scenario=prev.sig),
                lambda: prev_points,
                encode=stages._encode_deployment,
                decode=stages._decode_deployment,
            )
        return store.get_or_build(
            "deploy",
            keys.deploy_key(self.config, scenario=sig),
            lambda: inst.points,
            encode=stages._encode_deployment,
            decode=stages._decode_deployment,
        )

    def _resolve_tree(
        self,
        inst: EpochInstance,
        prev: _EpochState,
        points: PointSet,
        sig: Optional[Dict],
    ) -> AggregationTree:
        store = self.store
        if sig is None:
            return stages.tree_for(self.config, store)
        return store.get_or_build(
            "tree",
            keys.tree_key(self.config, scenario=sig),
            lambda: self._build_tree(inst, prev, points),
            encode=stages._encode_tree,
            decode=lambda payload: stages._decode_tree(payload, points),
        )

    def _resolve_schedule(
        self,
        inst: EpochInstance,
        links,
        sig: Optional[Dict],
        carried: Optional[ScheduleState] = None,
        link_ids: Optional[List] = None,
    ) -> Tuple[Any, Any]:
        store = self.store
        extra = (
            {"prev_state": carried, "link_ids": link_ids}
            if carried is not None
            else None
        )
        build = lambda: stages.build_schedule_direct(
            self.config, links, inst.model, extra
        )
        if sig is None:
            store.get_or_build(
                "links", keys.links_key(self.config), lambda: links
            )
        else:
            store.get_or_build(
                "links", keys.links_key(self.config, scenario=sig), lambda: links
            )
        # A delta scheduler's output depends on the carried history, so
        # its signature digest must split the key: a resumed run replays
        # the identical chain (same carried state -> same key -> disk
        # hit) instead of silently falling back to a from-scratch build.
        carried_sig = carried.signature() if carried is not None else None
        return store.get_or_build(
            "schedule",
            keys.schedule_key(
                self.config, inst.model, scenario=sig, carried=carried_sig
            ),
            build,
            encode=stages._encode_schedule,
            decode=lambda payload: stages._decode_schedule(
                payload, links, inst.model
            ),
        )

    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Execute baseline + timeline; return the full scenario record."""
        # The baseline needs only the static artifacts (slots, tree,
        # schedule) — never its frame simulation, which epochs redo
        # under their own load — so it runs frames-free; num_frames is
        # in no stage signature, so the store entries are shared either
        # way.
        base_pipeline = self.pipeline
        if self.config.num_frames > 0:
            base_pipeline = Pipeline(
                self.config.replace(num_frames=0),
                model=self.pipeline.model,
                store=self.store,
            )
        baseline: RunArtifact = base_pipeline.run()
        result = ScenarioResult(
            scenario=self.spec.name,
            params=dict(self.params),
            epochs=self.epochs,
            scenario_seed=self.scenario_seed,
            config=self.config.to_dict(),
            baseline_slots=baseline.num_slots,
            baseline_rate=baseline.rate,
            baseline_predicted_slots=baseline.predicted_slots,
            provenance={**baseline.provenance, "config": self.config.to_dict()},
        )
        timeline = self.spec.make(
            self.config,
            baseline.points,
            self.pipeline.model,
            epochs=self.epochs,
            rng=self.scenario_seed,
            **self.params,
        )
        prev = _EpochState(
            points=baseline.points,
            tree=baseline.tree,
            edge_id_set=edge_ids(
                baseline.tree.edges, np.arange(len(baseline.points))
            ),
            sig=None,
        )
        # Delta schedulers carry the previous epoch's slot assignment.
        # The chain is seeded from the (cold-start) baseline schedule
        # and re-captured from every *resolved* epoch schedule — store
        # hit or fresh build alike — so resuming a timeline from a disk
        # tier continues the identical carried chain.
        carried: Optional[ScheduleState] = None
        if self._carries_state:
            carried = ScheduleState.from_schedule(
                baseline.schedule,
                link_ids_for_links(
                    baseline.schedule.links, np.arange(len(baseline.points))
                ),
                self.pipeline.model,
            )
        # Computed at most once: epochs identical to the baseline
        # (static anchor, no-op churn) share this count instead of
        # re-checking every slot per epoch.
        baseline_violations: Optional[int] = None
        for inst in timeline:
            before = self.store.stats.snapshot()
            if inst.scenario_scoped and inst.changed:
                sig = self._signature(inst.index)
            else:
                sig = prev.sig
            points = self._resolve_deploy(inst, prev, sig)
            tree = self._resolve_tree(inst, prev, points, sig)
            links = tree.links()
            link_ids = (
                link_ids_for_links(links, inst.node_ids)
                if carried is not None
                else None
            )
            schedule, _report = self._resolve_schedule(
                inst, links, sig, carried=carried, link_ids=link_ids
            )
            if carried is not None:
                carried = ScheduleState.from_schedule(
                    schedule, link_ids, inst.model
                )
            edge_set = edge_ids(tree.edges, inst.node_ids)
            repair_cost = (
                len(edge_set - prev.edge_id_set) if sig is not None else 0
            )
            base_instance = sig is None  # base-keyed: the static artifacts
            base_model = inst.model == self.pipeline.model
            if base_instance and base_model:
                if baseline_violations is None:
                    baseline_violations = self._count_violations(
                        schedule, inst.model
                    )
                violations = baseline_violations
            else:
                violations = self._count_violations(schedule, inst.model)
            epoch = EpochResult(
                epoch=inst.index,
                n=len(points),
                links=len(links),
                slots=schedule.num_slots,
                rate=schedule.rate,
                diversity=float(links.diversity),
                tree_height=tree.height(),
                repair_cost=repair_cost,
                slots_vs_baseline=schedule.num_slots / baseline.num_slots,
                feasibility_violations=violations,
                schedule_repair=getattr(_report, "repair_cost", None),
            )
            if base_instance and not base_model:
                # The epoch shares the baseline's links (base stage
                # keys), only the channel changed: re-check the *stale*
                # baseline schedule under the epoch model.
                epoch.stale_violations = self._count_violations(
                    baseline.schedule, inst.model
                )
            self._simulate(inst, tree, schedule, epoch)
            epoch.store = self.store.stats.delta(before)
            result.epoch_results.append(epoch)
            prev = _EpochState(
                points=points, tree=tree, edge_id_set=edge_set, sig=sig
            )
        if len(result.epoch_results) != self.epochs:
            # A transform is contractually one instance per epoch; a
            # short timeline would otherwise poison sweep resume (rows
            # with len(epoch_metrics) != epochs re-run forever) and
            # leave degradation aggregates undefined.
            raise ConfigurationError(
                f"scenario {self.spec.name!r} yielded "
                f"{len(result.epoch_results)} epochs, expected {self.epochs}"
            )
        return result
