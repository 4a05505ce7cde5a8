"""The benchmark workloads and the observers that check their outputs.

Each workload runs rounds of a fixed unit of work through the public
API, every round from a cold start (fresh :class:`StageStore`,
``reset_default_store()``, hence fresh link sets and kernel caches):

* ``sweep-frames`` -- the everyday research sweep: the inline
  :class:`SweepEngine` over 72 cells with 200 simulated frames each.
  The frame simulator dominates, schedule builds are about a tenth.
* ``schedule-build`` -- ``Pipeline.run`` without frames on eight
  instances: six global-power builds (oracle repair driven by
  spectral-radius checks), one dense-kernel oblivious build (n=2000)
  and one above ``KERNEL_MAX_DENSE_LINKS`` (chunked kernel, spatially
  pruned conflict graph).  The simulator does nothing here.
* ``scenario-dynamic`` -- two :class:`ScenarioRunner` timelines:
  ``churn`` scheduled incrementally from carried state, and
  ``arrivals`` overdriving the certified rate (deep backlogs).
* ``cluster-sweep`` -- ``sweep-frames``' grid through
  ``SweepEngine(cluster=...)`` with two loopback workers started by
  ``worker_launch.py``; worker boot is timed apart from steady state.

Observers installed at the program's import sites record what every
round built and simulated; after the round (outside the timed region)
every schedule is re-verified slot by slot with the original
``is_feasible_with_power``.  An operation -- a cell, a schedule build or
an epoch -- fails when one of its schedules does not verify, one of its
simulations computed a wrong aggregate, a sweep cell is not ``ok`` or
did not drain, or an epoch reports SINR violations.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from hooks import REF_SPAWN_S, Recorder, merge_summaries, normalise, reference_spawn

HERE = Path(__file__).resolve().parent
#: Scratch directory for sweep JSONL files and worker records.
WORK = HERE.parent / ".perfbench"
#: Cluster rounds are abandoned (workers reaped, port closed) after this.
CLUSTER_TIMEOUT_S = 120.0
CLUSTER_WORKERS = 2


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    """One timed operation: a cell, a schedule build or an epoch."""

    key: str
    start: float
    end: float
    norm_s: float = 0.0


@dataclass
class RoundResult:
    traced: bool
    wall_s: float
    norm_s: float
    ops: List[Op]
    #: Operations per second and certified links per second, host-normalised.
    ops_per_s: float
    links_per_s: float
    slots_mean: float
    frame_latency_slots: Optional[float]
    attempted: int
    failures: Dict[str, List[str]]
    digest: str
    #: Counters that must repeat exactly for a seed.
    exact: Dict[str, float]
    #: Counters that depend on placement or timing (reported, not checked).
    observed: Dict[str, float] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    host_factor: float = 1.0
    setup_extra_s: Optional[float] = None
    rss_mb: float = 0.0
    #: Cluster-sweep only: boot, steady window and worker execute time.
    cluster: Optional[Dict[str, float]] = None
    #: Counts taken by traced wrappers (edges, colors, accepted probes).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Seconds of the round inside top-level spans of this process, and
    #: inside the benchmark's own probes.
    covered_s: float = 0.0
    probe_s: float = 0.0


# ----------------------------------------------------------------------
# Observers: what each round built and simulated
# ----------------------------------------------------------------------
@dataclass
class Build:
    """What one schedule build produced, copied off the program's objects
    so that holding it keeps no link set or kernel cache alive."""

    key: Optional[str]
    senders: np.ndarray
    receivers: np.ndarray
    slots: List[Tuple[Tuple[int, ...], Tuple[float, ...]]]
    model: Any
    split_classes: int
    repair_cost: Dict[str, Any]
    kernel: Dict[str, int]

    @property
    def links(self) -> int:
        return len(self.senders)


class Observations:
    """Builds and simulations seen during a round, keyed by operation."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.builds: List[Build] = []
        self.sims: List[Tuple[Optional[str], Any]] = []

    def reset(self) -> None:
        self.builds, self.sims = [], []

    def install(self) -> None:
        """Always-on observers (untraced runs too): counters and outputs."""
        import repro.store.stages as stages
        from repro.aggregation.simulator import AggregationSimulator
        from repro.links.linkset import LinkSet
        from repro.sinr.feasibility import is_feasible_with_power

        self.verify_slot = is_feasible_with_power
        self.linkset = LinkSet
        rec = self.rec

        def observe_build(fn, args, kwargs):
            links = args[1] if len(args) > 1 else kwargs["links"]
            kernel = links.kernel()
            before = kernel.stats.snapshot()
            schedule, report = built = fn(*args, **kwargs)
            # Kernel counters are read right after the build: the store's
            # LRU may evict the link set before the round ends.
            after_kernel = links.kernel()
            after = after_kernel.stats.snapshot()
            if after_kernel is not kernel:
                before = dict.fromkeys(after, 0)
            self.builds.append(Build(
                key=rec.current,
                senders=np.array(links.senders),
                receivers=np.array(links.receivers),
                slots=[(slot.link_indices, slot.powers) for slot in schedule.slots],
                model=schedule.model,
                split_classes=getattr(report, "split_classes", 0) or 0,
                repair_cost=dict(getattr(report, "repair_cost", None) or {}),
                kernel={k: after[k] - before[k] for k in after},
            ))
            return built

        def observe_sim(fn, args, kwargs):
            result = fn(*args, **kwargs)
            self.sims.append((rec.current, result))
            return result

        rec.wrap(stages, "build_schedule_direct", "store.schedule_stage", observe_build)
        rec.wrap(AggregationSimulator, "run", "aggregation.simulate", observe_sim)

    # ------------------------------------------------------------------
    def verify(self) -> Dict[Optional[str], List[str]]:
        """Re-check every built schedule slot by slot on a fresh copy of
        its link set (so the check neither reads nor grows the program's
        kernel caches); collect failures by operation."""
        failures: Dict[Optional[str], List[str]] = {}
        for build in self.builds:
            links = self.linkset(build.senders, build.receivers)
            covered = sorted(i for idx, _ in build.slots for i in idx)
            if covered != list(range(build.links)):
                failures.setdefault(build.key, []).append("slots do not partition the links")
            for k, (idx, powers) in enumerate(build.slots):
                vec = np.ones(build.links)
                vec[list(idx)] = powers
                if not self.verify_slot(links, vec, build.model, idx):
                    failures.setdefault(build.key, []).append(f"slot {k} violates SINR")
        for key, sim in self.sims:
            if not sim.values_correct:
                failures.setdefault(key, []).append("wrong aggregate value")
        return failures

    def partitions(self) -> Dict[str, List[List[List[int]]]]:
        out: Dict[str, List[List[List[int]]]] = {}
        for build in self.builds:
            out.setdefault(str(build.key), []).append([list(idx) for idx, _ in build.slots])
        return out

    def counters(self) -> Dict[str, float]:
        """Exact counters of the round's builds, kernels and simulations."""
        out: Dict[str, float] = {
            "builds": len(self.builds),
            "links_certified": sum(b.links for b in self.builds),
            "slots_total": sum(len(b.slots) for b in self.builds),
            "split_classes": sum(b.split_classes for b in self.builds),
            "sim.runs": len(self.sims),
            "sim.slots": sum(s.slots_elapsed for _, s in self.sims),
            "sim.frames_completed": sum(s.frames_completed for _, s in self.sims),
            "sim.max_backlog": max((s.max_backlog for _, s in self.sims), default=0),
        }
        for name in ("dense_builds", "dense_hits", "block_evals", "entries_served"):
            out[f"kernel.{name}"] = sum(b.kernel.get(name, 0) for b in self.builds)
        for build in self.builds:
            for name, value in build.repair_cost.items():
                out[f"repair.{name}"] = out.get(f"repair.{name}", 0) + int(value)
        return out

    def link_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for build in self.builds:
            out[str(build.key)] = out.get(str(build.key), 0) + build.links
        return out

    def slots_mean(self) -> float:
        return statistics.fmean(len(b.slots) for b in self.builds) if self.builds else 0.0

    def latencies(self) -> List[float]:
        """Mean frame latency (slots) of every simulation that completed frames."""
        return [float(s.mean_latency) for _, s in self.sims if s.latencies]


def install_layer_spans(rec: Recorder) -> None:
    """Span wrappers for the traced rounds, one per layer entry point,
    each at the import site its caller uses."""
    import repro.api.components as components
    import repro.runner.engine as engine
    import repro.scenarios.runner as scen
    import repro.scheduling.builder as builder
    import repro.sinr.feasibility as feasibility
    import repro.scheduling.schedule as schedule_mod
    from repro.api.pipeline import Pipeline
    from repro.links.linkset import LinkSet
    from repro.scheduling.builder import ScheduleBuilder
    from repro.scheduling.incremental import IncrementalScheduler
    from repro.spanning.tree import AggregationTree
    from repro.store.store import StageStore

    def edges(fn, args, kwargs):
        graph = fn(*args, **kwargs)
        rec.count("conflict.edges", graph.edge_count)
        return graph

    def colors(fn, args, kwargs):
        out = fn(*args, **kwargs)
        if len(out):
            rec.count("coloring.colors", int(np.max(out)) + 1)
        return out

    def spectral(fn, args, kwargs):
        ok = fn(*args, **kwargs)
        rec.count("sinr.spectral_accepted", int(bool(ok)))
        return ok

    sites = [
        (components, "uniform_square", "geometry.deploy", None),
        (components, "cluster_points_total", "geometry.deploy", None),
        (AggregationTree, "mst", "spanning.tree", None),
        (LinkSet, "from_pointset_edges", "links.build", None),
        (builder, "arbitrary_graph", "conflict.graph", edges),
        (builder, "oblivious_graph", "conflict.graph", edges),
        (builder, "greedy_coloring", "coloring.greedy", colors),
        (builder, "split_into_feasible_slots", "scheduling.split_oracle", None),
        (builder, "split_into_feasible_slots_fixed_power", "scheduling.split_fixed", None),
        (builder, "is_feasible_some_power", "sinr.spectral", spectral),
        (builder, "feasible_power_assignment", "sinr.power_assign", None),
        (ScheduleBuilder, "build_with_report", "scheduling.build", None),
        (IncrementalScheduler, "schedule", "scheduling.incremental", None),
        (schedule_mod.Schedule, "validate", "scheduling.validate", None),
        (schedule_mod, "is_feasible_with_power", "sinr.feasibility_check", None),
        (feasibility, "is_feasible_with_power", "sinr.feasibility_check", None),
        (scen, "is_feasible_with_power", "sinr.feasibility_check", None),
        (scen, "repair_tree", "scenarios.repair_tree", None),
        (scen.ScenarioRunner, "run", "scenarios.run", None),
        (StageStore, "get_or_build", "store.get_or_build", None),
        (Pipeline, "run", "api.pipeline", None),
        (engine.SweepEngine, "run", "runner.sweep", None),
        (engine, "append_result", "runner.persist", None),
    ]
    for owner, attr, name, observe in sites:
        rec.wrap(owner, attr, name, observe, traced=True)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    op_name = "op"
    #: Whether schedules are built in this process (not in cluster workers).
    builds_in_process = True
    #: Whether round 0 is an untimed warm-up: the first round of a workload
    #: that allocates hundreds of MiB runs 10-30% slower (fresh pages).
    warmup_round = False

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.obs = Observations(rec)
        self.ops: List[Op] = []

    def setup(self) -> None:
        """Imports, registry load, spec validation and a small warm-up run
        so that lazy imports and first-call set-up land here."""
        from repro.api import Pipeline, PipelineConfig
        from repro.store.store import StageStore, reset_default_store

        for mode in ("uniform", "oblivious", "global"):
            Pipeline(
                PipelineConfig(topology="square", n=24, power=mode, num_frames=4),
                store=StageStore(),
            ).run()
        reset_default_store()
        self.obs.install()

    def run_round(self, seed: int, traced: bool) -> RoundResult:
        from repro.store.store import reset_default_store

        rec = self.rec
        rec.reset()
        self.obs.reset()
        self.ops = []
        if traced:
            install_layer_spans(rec)
        reset_default_store()
        # The previous round's link sets and kernel caches form reference
        # cycles; collect them now rather than inside the timed region.
        gc.collect()
        rec.tracing = traced
        rec.probe()
        start = time.perf_counter()
        try:
            payload = self.body(seed, traced)
        finally:
            end = time.perf_counter()
            rec.probe()
            rec.tracing = False
            rec.untrace()
            rec.current = None
        for op in self.ops:
            op.norm_s = rec.normalise(op.start, op.end)
        norm_s = rec.normalise(start, end)
        failures = {str(k): v for k, v in self.obs.verify().items() if k is not None}
        links = sum(b.links for b in self.obs.builds)
        latencies = self.obs.latencies()
        fields = {
            "ops_per_s": len(self.ops) / norm_s,
            "links_per_s": links / norm_s,
            "slots_mean": self.obs.slots_mean(),
            "frame_latency_slots": statistics.fmean(latencies) if latencies else None,
            "partitions": self.obs.partitions(),
            "spans": rec.summary(),
            "counts": dict(rec.counters),
            "rss_mb": peak_rss_mb(),
        }
        covered = covered_seconds(rec.spans, start, end)
        exact = self.obs.counters() if self.builds_in_process else {}
        fields.update(self.finish(payload, seed))
        exact.update(fields.pop("exact", {}))
        for key, reasons in fields.pop("failures", {}).items():
            failures.setdefault(key, []).extend(reasons)
        out = RoundResult(
            traced=traced,
            wall_s=end - start,
            norm_s=norm_s,
            ops=self.ops,
            ops_per_s=fields.pop("ops_per_s"),
            links_per_s=fields.pop("links_per_s"),
            slots_mean=fields.pop("slots_mean"),
            frame_latency_slots=fields.pop("frame_latency_slots"),
            attempted=len(self.ops) + fields.pop("extra_ops", 0),
            failures=failures,
            digest=digest({"outputs": fields.pop("outputs"),
                           "partitions": fields.pop("partitions")}),
            exact=exact,
            observed=fields.pop("observed", {}),
            spans=fields.pop("spans"),
            host_factor=rec.host_factor(),
            setup_extra_s=fields.pop("setup_extra_s", None),
            rss_mb=fields.pop("rss_mb"),
            cluster=fields.pop("cluster", None),
            counts=fields.pop("counts"),
            covered_s=covered,
            probe_s=sum(e - s for _, name, s, e, _ in rec.spans
                        if name == "bench.probe" and s >= start and e <= end),
        )
        self.obs.reset()
        return out

    def body(self, seed: int, traced: bool) -> Any:
        raise NotImplementedError

    def finish(self, payload: Any, seed: int) -> Dict[str, Any]:
        raise NotImplementedError


class SweepFrames(Workload):
    name = "sweep-frames"
    op_name = "cell"

    @staticmethod
    def spec(seed: int):
        from repro.runner.spec import SweepSpec

        return SweepSpec(
            topologies=("square", "clusters"),
            # Three sizes keep the median and p75 cell inside a size
            # class rather than in the gap between two.
            ns=(100, 150, 200),
            modes=("uniform", "oblivious", "global"),
            seeds=4,
            base_seed=1000 * seed,
            num_frames=200,
        )

    def setup(self) -> None:
        import repro.runner.engine  # noqa: F401  (import cost belongs to set-up)

        self.spec(0)
        super().setup()
        WORK.mkdir(exist_ok=True)

    def _cell(self, cell):
        import repro.runner.engine as engine

        rec = self.rec
        rec.probe()
        rec.current = cell.cell_id
        start = time.perf_counter()
        with rec.maybe_span("runner.cell"):
            result = engine.run_cell(cell)
        self.ops.append(Op(cell.cell_id, start, time.perf_counter()))
        return result

    def body(self, seed: int, traced: bool):
        from repro.runner.engine import SweepEngine

        engine = SweepEngine(
            self.spec(seed),
            out_path=WORK / f"{self.name}.jsonl",
            resume=False,
            cell_runner=self._cell,
        )
        return engine.run()

    @staticmethod
    def rows(report) -> List[Dict[str, Any]]:
        rows = []
        for row in report.results:
            data = row.to_json_dict()
            data.pop("wall_time_s")
            rows.append(data)
        return rows

    def cell_failures(self, report) -> Dict[str, List[str]]:
        failures: Dict[str, List[str]] = {}
        for row in report.results:
            if not row.ok:
                failures.setdefault(row.cell_id, []).append(f"status {row.status}: {row.error}")
            elif row.stable is not True:
                failures.setdefault(row.cell_id, []).append("frames did not drain")
        return failures

    def finish(self, report, seed: int) -> Dict[str, Any]:
        stores = report.store_stats
        exact = {
            f"store.{stage}.{name}": stores.get(stage, {}).get(name, 0)
            for stage in ("deploy", "tree", "links", "schedule")
            for name in ("builds", "hits")
        }
        return {
            "outputs": self.rows(report),
            "failures": self.cell_failures(report),
            "exact": exact,
        }


class ScheduleBuild(Workload):
    name = "schedule-build"
    op_name = "build"
    warmup_round = True

    #: (topology, n, power, seed offset).  How much oracle repair a global
    #: build needs varies twofold between instances, so six of them
    #: average it out; n=2000 takes the dense kernel path and n=4200
    #: (4199 links > KERNEL_MAX_DENSE_LINKS) the chunked one with the
    #: spatially pruned conflict graph.
    INSTANCES = tuple(("square", 500, "global", k) for k in range(6)) + (
        ("square", 2000, "oblivious", 6),
        ("square", 4200, "oblivious", 7),
    )

    def configs(self, seed: int):
        from repro.api import PipelineConfig

        return [
            PipelineConfig(topology=t, n=n, power=p, seed=1000 * seed + k, num_frames=0)
            for t, n, p, k in self.INSTANCES
        ]

    def setup(self) -> None:
        import repro.scheduling.builder as builder

        self.configs(0)
        super().setup()

        def probe_first(fn, args, kwargs):
            self.rec.probe()
            return fn(*args, **kwargs)

        # The large builds last seconds; one more host-speed probe between
        # the conflict graph and the repair pass halves what each sample
        # has to cover.
        self.rec.wrap(builder, "greedy_coloring", None, probe_first)

    def body(self, seed: int, traced: bool):
        from repro.api import Pipeline
        from repro.store.store import StageStore

        rec = self.rec
        outputs = []
        for config in self.configs(seed):
            rec.probe()
            key = f"{config.topology}/n{config.n}/{config.power}/s{config.seed}"
            rec.current = key
            start = time.perf_counter()
            art = Pipeline(config, store=StageStore()).run()
            self.ops.append(Op(key, start, time.perf_counter()))
            # Keep a summary only: the artifact holds the link set and
            # its kernel caches, which the program would have released.
            outputs.append({
                "config": art.config.to_dict(),
                "slots": art.num_slots,
                "initial_colors": art.report.initial_colors,
                "split_classes": art.report.split_classes,
                "slot_sizes": list(art.report.slot_sizes),
                "store": art.provenance.get("store", {}),
            })
            del art
        return outputs

    def finish(self, outputs, seed: int) -> Dict[str, Any]:
        exact: Dict[str, float] = {}
        for out in outputs:
            for stage, counters in out.pop("store").items():
                for name in ("builds", "hits"):
                    key = f"store.{stage}.{name}"
                    exact[key] = exact.get(key, 0) + counters.get(name, 0)
        return {"outputs": outputs, "exact": exact}


class ScenarioDynamic(Workload):
    name = "scenario-dynamic"
    op_name = "epoch"
    warmup_round = True

    def timelines(self, seed: int):
        from repro.api import PipelineConfig

        base = 1000 * seed
        return [
            (
                "churn",
                PipelineConfig(
                    topology="square", n=2000, power="oblivious",
                    scheduler="incremental-certified", seed=base,
                ),
                8,
                {"p_leave": 3 / 2000},
            ),
            (
                "arrivals",
                PipelineConfig(topology="square", n=400, power="oblivious", seed=base + 1),
                6,
                {"rate": 60.0, "load": 2.0},
            ),
        ]

    def setup(self) -> None:
        from repro.scenarios.runner import ScenarioRunner  # noqa: F401
        from repro.scenarios.transforms import ScenarioSpec, scenarios

        self.timelines(0)
        super().setup()
        # Epoch boundaries are where the runner pulls the next instance
        # from the scenario's timeline generator; re-register the two
        # transforms under their own names with a generator that marks
        # them (and probes host speed between epochs).
        for name in ("churn", "arrivals"):
            spec = scenarios.get(name)
            scenarios.register(
                name, ScenarioSpec(name, self._marked(spec.make), spec.description),
                overwrite=True,
            )
        self._open: Optional[Tuple[str, float]] = None
        self._label = ""

    def _close_epoch(self) -> None:
        if self._open is not None:
            key, start = self._open
            self.ops.append(Op(key, start, time.perf_counter()))
            self._open = None

    def _marked(self, make):
        def timeline(*args, **kwargs):
            for inst in make(*args, **kwargs):
                self._close_epoch()
                self.rec.probe()
                key = f"{self._label}/e{inst.index}"
                self.rec.current = key
                self._open = (key, time.perf_counter())
                yield inst
            self._close_epoch()

        return timeline

    def body(self, seed: int, traced: bool):
        from repro.scenarios.runner import ScenarioRunner
        from repro.store.store import StageStore

        results = []
        for label, config, epochs, params in self.timelines(seed):
            self.rec.probe()
            self._label = label
            self.rec.current = f"{label}/baseline"
            runner = ScenarioRunner(
                config, label, epochs=epochs, params=params, store=StageStore()
            )
            result = runner.run()
            self._close_epoch()
            results.append((label, result, runner.store.stats.snapshot()))
        return results

    def finish(self, results, seed: int) -> Dict[str, Any]:
        outputs = []
        failures: Dict[str, List[str]] = {}
        exact: Dict[str, float] = {"scenarios.repair_cost": 0}
        for label, result, store in results:
            epochs = [e.to_json_dict(with_store=False) for e in result.epoch_results]
            outputs.append({"scenario": label, "baseline_slots": result.baseline_slots,
                            "epochs": epochs})
            for e in result.epoch_results:
                exact["scenarios.repair_cost"] += e.repair_cost
                if e.feasibility_violations:
                    failures.setdefault(f"{label}/e{e.epoch}", []).append(
                        f"{e.feasibility_violations} SINR violations"
                    )
            for stage, counters in store.items():
                for name in ("builds", "hits"):
                    key = f"store.{stage}.{name}"
                    exact[key] = exact.get(key, 0) + counters.get(name, 0)
        # Baseline builds are operations outside any epoch.
        baseline = [b for b in self.obs.builds if str(b.key).endswith("/baseline")]
        return {"outputs": outputs, "failures": failures, "exact": exact,
                "extra_ops": len(baseline)}


def covered_seconds(spans, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` inside at least one top-level span
    (spans of other threads may overlap the main thread's)."""
    total, reach = 0.0, start
    for s, e in sorted((max(s, start), min(e, end)) for _, _, s, e, p in spans if not p):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ClusterSweep(SweepFrames):
    name = "cluster-sweep"
    builds_in_process = False

    def setup(self) -> None:
        import repro.cluster.worker  # noqa: F401  (import cost belongs to set-up)
        from repro.cluster.orchestrator import Orchestrator

        super().setup()
        self._hellos: List[float] = []
        self._accepted: List[Tuple[float, str]] = []

        def hello(fn, args, kwargs):
            reply = fn(*args, **kwargs)
            self._hellos.append(time.perf_counter())
            return reply

        def result(fn, args, kwargs):
            reply = fn(*args, **kwargs)
            if reply.get("type") == "result_ack" and not reply.get("duplicate"):
                self._accepted.append((time.perf_counter(), reply["cell_id"]))
            return reply

        def bounded_wait(fn, args, kwargs):
            # A worker that never connects must not hang the benchmark:
            # the timeout raises through the engine, whose ``with``
            # block stops the orchestrator and frees the port.
            return fn(args[0], timeout=CLUSTER_TIMEOUT_S)

        self.rec.wrap(Orchestrator, "_handle_hello", None, hello)
        self.rec.wrap(Orchestrator, "_handle_result", None, result)
        self.rec.wrap(Orchestrator, "wait", None, bounded_wait)

    def _spawn(self, index: int, port: int, traced: bool) -> subprocess.Popen:
        record = WORK / f"worker{index}.json"
        record.unlink(missing_ok=True)
        with open(WORK / f"worker{index}.log", "wb") as log:
            return subprocess.Popen(
                [sys.executable, str(HERE / "worker_launch.py"), "--port", str(port),
                 "--trace", str(int(traced)), "--out", str(record)],
                stdout=log, stderr=subprocess.STDOUT, cwd=str(HERE.parent),
            )

    @staticmethod
    def _reap(procs: List[subprocess.Popen]) -> None:
        """Wait for every worker; terminate, then kill, stragglers."""
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def body(self, seed: int, traced: bool):
        from repro.runner.engine import SweepEngine

        rec = self.rec
        port = free_port()
        engine = SweepEngine(
            self.spec(seed),
            out_path=WORK / f"{self.name}.jsonl",
            resume=False,
            cluster=f"127.0.0.1:{port}",
        )
        self._hellos, self._accepted = [], []
        procs: List[subprocess.Popen] = []
        with rec.maybe_span("bench.probe"):
            refs = [reference_spawn(str(HERE.parent))]
        spawn_at = time.perf_counter()
        try:
            with rec.maybe_span("cluster.spawn"):
                procs = [self._spawn(i, port, traced) for i in range(CLUSTER_WORKERS)]
            report = engine.run()
        finally:
            with rec.maybe_span("cluster.reap"):
                self._reap(procs)
        with rec.maybe_span("bench.probe"):
            refs.append(reference_spawn(str(HERE.parent)))
        records = []
        for i in range(CLUSTER_WORKERS):
            path = WORK / f"worker{i}.json"
            records.append(json.loads(path.read_text()) if path.exists() else None)
        return report, spawn_at, statistics.fmean(refs), list(self._hellos), list(self._accepted), records

    def finish(self, payload, seed: int) -> Dict[str, Any]:
        report, spawn_at, ref_spawn, hellos, accepted, records = payload
        failures = self.cell_failures(report)
        stats = report.cluster_stats or {}
        broken = (
            stats.get("reassignments") or stats.get("duplicate_results")
            or len(hellos) < CLUSTER_WORKERS or None in records
        )
        if broken:
            # A round with a reassigned or duplicated lease, or a worker
            # that never connected or left no record, fails as a whole.
            for row in report.results:
                failures.setdefault(row.cell_id, []).append("cluster round degraded")
        records = [r for r in records if r is not None]
        partitions: Dict[str, Any] = {}
        links: Dict[str, int] = {}
        exact: Dict[str, float] = {"cluster.leases": stats.get("leases_granted", 0)}
        observed: Dict[str, float] = {
            "cluster.reassignments": stats.get("reassignments", 0),
            "cluster.duplicates": stats.get("duplicate_results", 0),
        }
        latencies: List[float] = []
        probes: List[Tuple[float, float]] = []
        for r in records:
            partitions.update(r["partitions"])
            links.update(r["links"])
            latencies.extend(r["latencies"])
            own = [tuple(p) for p in r["probes"]]
            probes.extend(own)
            for key, reasons in r["failures"].items():
                failures.setdefault(key, []).extend(reasons)
            for name, value in r["counters"].items():
                # Which worker builds which deployment depends on lease
                # timing, so cache and kernel counters are not exact here.
                target = observed if name.startswith(("kernel.", "store.")) else exact
                if name == "sim.max_backlog":
                    target[name] = max(target.get(name, 0), value)
                else:
                    target[name] = target.get(name, 0) + value
            for cell_id, start, end in r["cells"]:
                self.ops.append(Op(cell_id, start, end, normalise(own, start, end)))
        self.ops.sort(key=lambda op: op.start)
        for stage, counters in stats.get("store_stats", {}).items():
            for name in ("builds", "hits"):
                observed[f"store.{stage}.{name}"] = counters.get(name, 0)

        # Steady state runs from the last worker's hello to the last
        # accepted result; worker probes inside it are not throughput.
        boot_end = max(hellos) if hellos else spawn_at
        end = max((t for t, _ in accepted), default=boot_end)
        window = max(end - boot_end, 1e-9)
        in_window = [(t, d) for t, d in probes if boot_end <= t < end]
        probe_share = sum(d for _, d in in_window) / max(len(records), 1)
        busy = max(window - probe_share, 1e-9)
        norm_window = busy * normalise(probes, boot_end, end) / max(
            window - sum(d for _, d in in_window), 1e-9
        )
        steady = [cid for t, cid in accepted if t > boot_end]
        # Boot is interpreter start-up and imports, like set-up.
        boot = (boot_end - spawn_at) * REF_SPAWN_S / ref_spawn
        execute = sum(e - s for r in records for _, s, e in r["cells"] if s >= boot_end)
        return {
            "outputs": self.rows(report),
            "partitions": partitions,
            "failures": failures,
            "exact": exact,
            "observed": observed,
            "ops_per_s": len(steady) / norm_window,
            "links_per_s": sum(links.get(cid, 0) for cid in steady) / norm_window,
            "slots_mean": exact.get("slots_total", 0) / max(exact.get("builds", 0), 1),
            "frame_latency_slots": statistics.fmean(latencies) if latencies else None,
            "setup_extra_s": boot,
            "rss_mb": max([peak_rss_mb()] + [r["maxrss_kb"] / 1024.0 for r in records]),
            "spans": merge_summaries([self.rec.summary()] + [r["summary"] for r in records]),
            "counts": _merge_counts([dict(self.rec.counters)] + [r["counts"] for r in records]),
            "cluster": {
                "boot_s": boot,
                "window_s": window,
                "execute_s": execute,
                "workers": len(records),
            },
        }


def _merge_counts(parts: List[Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0) + value
    return out


WORKLOADS = {
    cls.name: cls for cls in (SweepFrames, ScheduleBuild, ScenarioDynamic, ClusterSweep)
}
