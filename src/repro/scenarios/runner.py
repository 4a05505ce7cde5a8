"""The scenario runner: an epoch timeline executed through the store.

A :class:`ScenarioRunner` resolves a scenario name against the registry
(:mod:`repro.scenarios.transforms`), runs the **static baseline**
through the ordinary :class:`~repro.api.pipeline.Pipeline`, then walks
the epoch timeline.  Every epoch stage resolves through the stage
functions of :mod:`repro.store.stages` (``deployment_for``,
``tree_for``, ``schedule_for``), which own every key and disk codec:

* epochs whose deployment equals the base (``static``, ``fading``,
  ``arrivals``) pass no signature and resolve through the *base* stage
  keys — deploy, tree and links are hits, and only genuinely new work
  (a schedule under a faded model, an online simulation) is computed;
* epochs with derived deployments (``churn``, ``mobility``) pass their
  epoch signature with their points, tree build and links, so a re-run
  — or a resume from a disk tier — reuses every epoch already built,
  and each epoch's *input* (the previous deployment) is re-resolved
  through the store, keeping the epoch chain observable in the hit
  counters.

The runner itself decides only *what* an epoch is: its signature, its
tree policy (:meth:`ScenarioRunner._build_tree`) and the carried state
of a delta scheduler.

Per-epoch :class:`EpochResult` records carry the degradation metrics:
slots versus the static baseline, incremental tree-repair cost,
slot-by-slot SINR feasibility violations (plus *stale* violations — the
baseline schedule re-checked under a faded model), and the simulation
outcome under online frame load.

>>> from repro.api.config import PipelineConfig
>>> from repro.scenarios.runner import ScenarioRunner
>>> result = ScenarioRunner(
...     PipelineConfig(topology="grid", n=9), "static", epochs=2
... ).run()
>>> [e.slots == result.baseline_slots for e in result.epoch_results]
[True, True]
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api.components import schedulers, trees
from repro.api.config import PipelineConfig, _check_params
from repro.api.pipeline import Pipeline, RunArtifact
from repro.errors import ConfigurationError
from repro.geometry.point import PointSet
from repro.scenarios.repair import edge_ids, map_edges_by_id, repair_tree
from repro.scenarios.timeline import EpochInstance
from repro.scenarios.transforms import ScenarioSpec, scenarios
from repro.scheduling.incremental import ScheduleState, link_ids_for_links
from repro.sinr.feasibility import is_feasible_with_power
from repro.sinr.model import SINRModel
from repro.spanning.tree import AggregationTree
from repro.store import stages
from repro.store.store import StageStore, get_default_store
from repro.util.rng import as_generator
from repro.util.validation import check_int_min

__all__ = ["EpochResult", "ScenarioResult", "ScenarioRunner"]


@dataclass
class EpochResult:
    """Degradation measurements of one scenario epoch.

    ``slots_vs_baseline`` is the headline metric (epoch schedule length
    over the static baseline's); ``repair_cost`` counts tree edges that
    had to be added this epoch; ``feasibility_violations`` counts slots
    of the epoch schedule that fail the SINR condition under the
    epoch's model, and ``stale_violations`` re-checks the *baseline*
    schedule under the epoch model (``None`` when the epoch shares the
    baseline's links and model, or when links changed).  Simulation
    fields are ``None`` for epochs without frames.
    """

    epoch: int
    n: int
    links: int
    slots: int
    rate: float
    diversity: float
    tree_height: int
    repair_cost: int
    slots_vs_baseline: float
    feasibility_violations: int
    stale_violations: Optional[int] = None
    frames_injected: Optional[int] = None
    frames_completed: Optional[int] = None
    mean_latency: Optional[float] = None
    max_backlog: Optional[int] = None
    stable: Optional[bool] = None
    #: RepairCost counters of a delta scheduler's build (None for
    #: from-scratch schedulers).  Pure function of the epoch delta, so
    #: it is safe inside byte-identical JSON surfaces, unlike ``store``.
    schedule_repair: Optional[Dict[str, Any]] = None
    store: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_json_dict(self, *, with_store: bool = True) -> Dict[str, Any]:
        """JSON form; ``with_store=False`` drops the cache counters —
        they depend on cache warmth and execution backend, so surfaces
        with a byte-identical determinism contract (the sweep engine's
        JSONL rows) must exclude them."""
        out = asdict(self)
        if not with_store:
            out.pop("store")
        return out


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: str
    params: Dict[str, Any]
    epochs: int
    scenario_seed: int
    config: Dict[str, Any]
    baseline_slots: int
    baseline_rate: float
    baseline_predicted_slots: float
    epoch_results: List[EpochResult] = field(default_factory=list)
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def degradation(self) -> Dict[str, Any]:
        """Aggregate degradation metrics over the whole timeline."""
        ratios = [e.slots_vs_baseline for e in self.epoch_results]
        stale = [e.stale_violations for e in self.epoch_results
                 if e.stale_violations is not None]
        return {
            "epochs": len(self.epoch_results),
            "mean_slots_ratio": sum(ratios) / len(ratios) if ratios else None,
            "max_slots_ratio": max(ratios) if ratios else None,
            "final_slots_ratio": ratios[-1] if ratios else None,
            "total_repair_cost": sum(e.repair_cost for e in self.epoch_results),
            "total_violations": sum(
                e.feasibility_violations for e in self.epoch_results
            ),
            "total_stale_violations": sum(stale) if stale else 0,
            "unstable_epochs": sum(
                1 for e in self.epoch_results if e.stable is False
            ),
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (one scenario run, epochs inline)."""
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "epochs": self.epochs,
            "scenario_seed": self.scenario_seed,
            "config": dict(self.config),
            "baseline_slots": self.baseline_slots,
            "baseline_rate": self.baseline_rate,
            "baseline_predicted_slots": self.baseline_predicted_slots,
            "epoch_results": [e.to_json_dict() for e in self.epoch_results],
            "degradation": self.degradation,
            "provenance": dict(self.provenance),
        }

    def summary(self) -> str:
        """Human-readable per-epoch table plus the degradation line."""
        lines = [
            f"scenario={self.scenario} epochs={self.epochs} "
            f"seed={self.scenario_seed} baseline_slots={self.baseline_slots}",
            f"{'epoch':>6}{'n':>6}{'slots':>7}{'ratio':>7}{'repair':>8}"
            f"{'viol':>6}{'stale':>7}{'stable':>8}",
        ]
        for e in self.epoch_results:
            stale = "-" if e.stale_violations is None else str(e.stale_violations)
            stable = "-" if e.stable is None else str(e.stable)
            lines.append(
                f"{e.epoch:>6}{e.n:>6}{e.slots:>7}{e.slots_vs_baseline:>7.2f}"
                f"{e.repair_cost:>8}{e.feasibility_violations:>6}{stale:>7}"
                f"{stable:>8}"
            )
        d = self.degradation
        lines.append(
            f"degradation: mean_ratio={d['mean_slots_ratio']:.2f} "
            f"max_ratio={d['max_slots_ratio']:.2f} "
            f"repair_cost={d['total_repair_cost']} "
            f"violations={d['total_violations']} "
            f"stale={d['total_stale_violations']} "
            f"unstable={d['unstable_epochs']}"
        )
        return "\n".join(lines)


@dataclass
class _EpochState:
    """What the runner carries from one epoch to the next."""

    points: PointSet
    edge_id_set: frozenset
    sig: Optional[Dict[str, Any]]  # scenario signature (None = base keys)


class ScenarioRunner:
    """Runs one scenario timeline over one pipeline config.

    Parameters
    ----------
    config:
        The static base instance (a plain pipeline config).
    scenario:
        Registry name of the scenario transform.
    epochs:
        Timeline length (>= 1).
    params:
        Extra keyword arguments for the transform (e.g.
        ``{"p_leave": 0.2}`` for ``churn``), checked here against its
        signature and by its registered ``check``, before any stage
        runs; ``epochs`` and ``rng`` are the runner's own.
    scenario_seed:
        Seed of the scenario's own randomness (departures, waypoints,
        fades, arrivals), an integer >= 0; defaults to ``config.seed`` so
        a config alone reproduces the whole timeline.
    model:
        Optional explicit base :class:`SINRModel` (as for
        :class:`~repro.api.pipeline.Pipeline`).
    store:
        Stage store mediating all epoch computation; ``None`` uses the
        process-wide store.
    """

    def __init__(
        self,
        config: PipelineConfig,
        scenario: str = "static",
        *,
        epochs: int = 3,
        params: Optional[Dict[str, Any]] = None,
        scenario_seed: Optional[int] = None,
        model: Optional[SINRModel] = None,
        store: Optional[StageStore] = None,
    ) -> None:
        self.config = config
        self.spec: ScenarioSpec = scenarios.get(scenario)
        if not isinstance(epochs, int) or epochs < 1:
            raise ConfigurationError(f"epochs must be a positive int, got {epochs!r}")
        self.epochs = epochs
        self.params = dict(params or {})
        _check_params("params", self.params, self.spec.make, self.spec.name)
        self.scenario_seed = (
            config.seed
            if scenario_seed is None
            else check_int_min("scenario_seed", scenario_seed, minimum=0)
        )
        self.store = get_default_store() if store is None else store
        self.pipeline = Pipeline(config, model=model, store=self.store)
        if self.spec.check is not None:
            self.spec.check(self.pipeline.model, **self.params)
        #: Whether the configured scheduler is a delta scheduler that
        #: accepts carried state (e.g. ``incremental-certified``).
        self._carries_state = schedulers.get(config.scheduler).carries_state

    # ------------------------------------------------------------------
    def _signature(self, epoch: int) -> Dict[str, Any]:
        """The scenario signature folded into epoch stage keys."""
        return {
            "scenario": self.spec.name,
            "scenario_seed": self.scenario_seed,
            "params": dict(sorted(self.params.items())),
            "epoch": epoch,
        }

    def _build_tree(
        self,
        inst: EpochInstance,
        prev: _EpochState,
        points: PointSet,
    ) -> AggregationTree:
        """The epoch tree per the instance's tree policy (uncached)."""
        if inst.tree_policy == "repair":
            return repair_tree(points, inst.node_ids, prev.edge_id_set, inst.sink)
        if inst.tree_policy == "rebuild":
            return trees.get(self.config.tree).build(
                points, sink=inst.sink, **self.config.tree_params
            )
        # "reuse": keep the previous structure, mapped through the
        # persistent ids, with link geometry re-derived on new coords.
        edges = map_edges_by_id(
            prev.edge_id_set, inst.node_ids, require_all=True
        )
        return AggregationTree(points, edges, sink=inst.sink)

    # ------------------------------------------------------------------
    @staticmethod
    def _count_violations(schedule, model: SINRModel) -> int:
        """Slots of ``schedule`` that fail the SINR condition under
        ``model`` — slot-by-slot, through the link set's kernel cache."""
        violations = 0
        for slot in schedule.slots:
            vec = schedule._full_power_vector(slot)
            if not is_feasible_with_power(
                schedule.links, vec, model, slot.link_indices
            ):
                violations += 1
        return violations

    def _simulate(
        self, inst: EpochInstance, tree: AggregationTree, schedule, result: EpochResult
    ) -> None:
        if inst.num_frames <= 0:
            return
        from repro.aggregation.simulator import AggregationSimulator

        period = schedule.num_slots
        injection = max(1, int(round(period / inst.load)))
        sim = AggregationSimulator(tree, schedule).run(
            inst.num_frames,
            injection_period=injection,
            rng=as_generator((self.scenario_seed, inst.index)),
        )
        result.frames_injected = sim.frames_injected
        result.frames_completed = sim.frames_completed
        mean_latency = sim.mean_latency
        result.mean_latency = (
            None if math.isnan(mean_latency) else float(mean_latency)
        )
        result.max_backlog = int(sim.max_backlog)
        result.stable = bool(sim.stable)

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
        config, store = self.config, self.store
        for inst in timeline:
            before = store.stats.snapshot()
            if inst.scenario_scoped and inst.changed:
                sig = self._signature(inst.index)
            else:
                sig = prev.sig
            if sig is not None and sig != prev.sig:
                # Re-resolve the epoch's *input* — the previous deployment —
                # through the store: counts the chain in the hit counters
                # and backfills a disk tier that lacks the entry.
                stages.deployment_for(
                    config, store, scenario=prev.sig, points=prev.points
                )
            points = stages.deployment_for(
                config, store, scenario=sig, points=inst.points
            )
            tree = stages.tree_for(
                config, store, scenario=sig, points=points,
                build=lambda: self._build_tree(inst, prev, points),
            )
            links = tree.links()
            link_ids = (
                link_ids_for_links(links, inst.node_ids)
                if carried is not None
                else None
            )
            schedule, _report = stages.schedule_for(
                config, store, inst.model, scenario=sig, links=links,
                carried=carried, link_ids=link_ids,
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
            epoch.store = store.stats.delta(before)
            result.epoch_results.append(epoch)
            prev = _EpochState(points=points, edge_id_set=edge_set, sig=sig)
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

    def __repr__(self) -> str:
        return (
            f"ScenarioRunner(scenario={self.spec.name!r}, epochs={self.epochs}, "
            f"config={self.config.topology!r}/n{self.config.n})"
        )
