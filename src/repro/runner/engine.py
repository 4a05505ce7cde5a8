"""The sweep execution engine.

Executes the cells of a :class:`~repro.runner.spec.SweepSpec` through
the :class:`~repro.jobs.JobService` execution API:

* **parallelism** — ``jobs > 1`` fans cells out over the service's
  worker pool.  Each worker process owns a per-process stage store
  (:mod:`repro.store`), so deployments, trees, link sets and schedules
  warm up per worker and the PR-1 kernel caches never cross process
  boundaries; ``jobs == 1`` runs inline in-process (fully
  deterministic, easiest to debug and monkeypatch in tests).
* **stage reuse** — all stage computation routes through the shared
  content-addressed store, so a ``topology x mode x alpha`` grid builds
  each distinct deployment and tree once per process, not once per
  cell; pass ``cache_dir`` to persist stage artifacts on disk across
  runs.  Per-stage build/hit counters land in
  ``SweepReport.store_stats``.
* **deterministic seeding** — a cell's deployment *and* simulation RNG
  are seeded from the cell spec alone, so reruns and resumed runs
  produce identical records regardless of scheduling order or cache
  state.
* **error isolation** — :func:`run_cell` converts any
  :class:`~repro.errors.ReproError` (or unexpected exception) into an
  ``status == "error"`` record; one infeasible or overflowing cell
  never kills the sweep.
* **incremental, ordered persistence** — completed records are appended
  to the output JSONL in canonical cell order as their results are
  collected, so the file is crash-resumable *and* two runs of the same
  spec are byte-identical modulo timing fields.
* **resume** — cells whose ids already appear as ``ok`` rows in the
  output file are skipped; failed rows are retried.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.api.config import PipelineConfig
from repro.api.measurements import MeasurementContext, measurements
from repro.api.pipeline import Pipeline
from repro.errors import ConfigurationError, ReproError
from repro.jobs.service import JobService
from repro.runner.results import (
    CellResult,
    append_result,
    attach_predictions,
    read_results,
    summary_table,
    write_results,
)
from repro.runner.spec import CellSpec, SweepSpec
from repro.store.store import StageStore

__all__ = ["SweepEngine", "SweepReport", "run_cell"]


def run_cell(cell: CellSpec, *, store: Optional[StageStore] = None) -> CellResult:
    """Execute one sweep cell (module-level, hence pool-picklable).

    Resolves the cell's component names through the registry-backed
    :class:`~repro.api.pipeline.Pipeline`, builds the deployment and
    tree — both mediated by the stage store (``store=None`` means the
    process default store, as it does for ``Pipeline``), so cells
    sharing stage signatures share artifacts — and applies every
    requested measurement from the measurement registry (the schedule
    is built lazily, only when a measurement needs it).  All failures
    are captured in the record rather than raised.
    """
    result = CellResult.for_cell(cell)
    start = time.perf_counter()
    try:
        config = PipelineConfig(
            topology=cell.topology,
            n=cell.n,
            seed=cell.seed,
            tree=cell.tree,
            power=cell.mode,
            scheduler=cell.scheduler,
            alpha=cell.alpha,
            beta=cell.beta,
            num_frames=cell.num_frames,
            backend=cell.backend,
        )
        pipeline = Pipeline(config, store=store)
        points = pipeline.deploy()
        tree = pipeline.build_tree(points)
        ctx = MeasurementContext(
            pipeline, points, tree, num_frames=cell.num_frames, rng=cell.seed
        )
        result.diversity = float(ctx.links.diversity)
        for name in cell.measure:
            measurements.get(name)(ctx, result)

        attach_predictions(result)
        if cell.is_dynamic:
            # The scenario timeline rides on the static measurements
            # above: its baseline re-resolves through the same store
            # (all hits), and the headline fields stay the plain
            # pipeline's — bit-identical to a non-scenario cell.
            from repro.scenarios.runner import ScenarioRunner

            scenario_run = ScenarioRunner(
                config,
                cell.scenario,
                epochs=cell.epochs,
                scenario_seed=cell.seed,
                store=pipeline.store,
            ).run()
            # Store counters are excluded: they vary with cache warmth
            # and backend, and persisted rows are contractually
            # byte-identical across reruns and jobs counts.
            result.epoch_metrics = [
                e.to_json_dict(with_store=False)
                for e in scenario_run.epoch_results
            ]
            result.degradation = scenario_run.degradation
    except ReproError as exc:
        result.status = "error"
        result.error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # pragma: no cover - defensive
        result.status = "error"
        result.error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    result.wall_time_s = time.perf_counter() - start
    return result


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepEngine.run` call."""

    spec: SweepSpec
    results: List[CellResult] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    wall_time_s: float = 0.0
    #: Per-stage store counters summed over every executed cell (hits,
    #: builds, disk_hits, disk_writes) — additive across worker
    #: processes.  ``{"deploy": {"builds": 2, ...}, ...}``; empty when
    #: nothing executed.
    store_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Orchestrator counters when the sweep ran on the cluster backend
    #: (workers seen, leases granted, reassignments, duplicates, merged
    #: worker store stats); ``None`` for local runs.
    cluster_stats: Optional[Dict[str, Any]] = None

    @property
    def total(self) -> int:
        return self.spec.num_cells

    def summary(self) -> str:
        return (
            f"sweep: {self.total} cells, {self.executed} executed, "
            f"{self.skipped} resumed, {self.failed} failed "
            f"({self.wall_time_s:.1f}s)"
        )

    def table(self, keys: Tuple[str, ...] = ("topology", "n", "mode")) -> str:
        return summary_table(self.results, keys)


class SweepEngine:
    """Runs every cell of a spec through the job service, with persistence.

    Parameters
    ----------
    spec:
        The scenario grid.
    jobs:
        Worker processes; 1 runs inline (no pool).
    out_path:
        Target JSONL file.  ``None`` keeps results in memory only (and
        disables resume).
    resume:
        When true (default) and the output file exists, cells already
        recorded as ``ok`` are not re-executed; their rows are kept.
    cache_dir:
        Optional on-disk stage-cache directory.  Stage artifacts
        (deployments, trees, schedules) persist there across engine
        runs and processes, so a resumed sweep — or one whose cells
        re-run because the spec now asks for more — never recomputes a
        stage already on disk.
    cell_runner:
        Override of :func:`run_cell` — for tests with ``jobs == 1``
        (a pool requires a picklable module-level function).
    cluster:
        ``"host:port"`` switches execution to the distributed backend:
        the engine binds a :class:`~repro.cluster.Orchestrator` at that
        address and ``repro worker`` processes run the cells.  Resume,
        canonical row order and error isolation are unchanged;
        ``jobs``/``cell_runner`` are ignored (each worker owns its local
        equivalents).
    cluster_batch / lease_ttl_s:
        Cells per lease and the heartbeat-renewed lease deadline for
        the cluster backend.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        jobs: int = 1,
        out_path: Optional[Union[str, Path]] = None,
        resume: bool = True,
        cache_dir: Optional[Union[str, Path]] = None,
        cell_runner: Callable[[CellSpec], CellResult] = run_cell,
        cluster: Optional[str] = None,
        cluster_batch: int = 4,
        lease_ttl_s: float = 30.0,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.spec = spec
        self.jobs = jobs
        self.out_path = Path(out_path) if out_path is not None else None
        self.resume = resume
        self.cache_dir = cache_dir
        self.cell_runner = cell_runner
        self.cluster = cluster
        self.cluster_batch = cluster_batch
        self.lease_ttl_s = lease_ttl_s
        if cluster is not None:
            # Validate the cluster options eagerly so a typo fails at
            # construction, not after the sweep file has been truncated.
            from repro.cluster.orchestrator import check_lease_settings
            from repro.cluster.protocol import parse_address

            parse_address(cluster)
            check_lease_settings(lease_ttl_s, cluster_batch)

    # ------------------------------------------------------------------
    @staticmethod
    def _satisfies(row: CellResult, cell: CellSpec) -> bool:
        """Whether a persisted ``ok`` row covers everything ``cell`` asks
        for — the resume check is content-based, so raising ``--frames``
        or adding a measurement re-runs the cell instead of silently
        reusing a row that lacks the newly requested fields."""
        if not row.ok:
            return False
        if "schedule" in cell.measure and row.slots is None:
            return False
        if "g1" in cell.measure and row.g1_colors is None:
            return False
        if cell.num_frames > 0 and row.frames_injected is None:
            return False
        if cell.is_dynamic and (
            row.epoch_metrics is None
            or row.degradation is None
            or len(row.epoch_metrics) != cell.epochs
        ):
            return False
        return True

    def run(self) -> SweepReport:
        """Execute all pending cells and return the full report.

        ``report.results`` holds one record per grid cell in canonical
        order — resumed rows are loaded back from the output file so the
        caller always sees the complete sweep.  Rows belonging to a
        *different* grid stored in the same file are preserved (the file
        stays a union of sweeps), just moved ahead of this spec's block.
        """
        start = time.perf_counter()
        cells = list(self.spec.cells())
        by_id = {c.cell_id: c for c in cells}
        # Rows written before the registry redesign carry the shorter
        # tree/scheduler-less id; they can only describe the default
        # mst/certified combination, so map that alias too instead of
        # re-running (and duplicating) every old cell.
        for c in cells:
            if c.tree == "mst" and c.scheduler == "certified" and not c.is_dynamic:
                by_id.setdefault(c.legacy_cell_id, c)
        done: Dict[str, CellResult] = {}
        foreign: List[CellResult] = []
        had_existing_rows = False
        if self.out_path is not None:
            if self.resume and self.out_path.exists():
                for row in read_results(self.out_path):
                    had_existing_rows = True
                    cell = by_id.get(row.cell_id)
                    if cell is None:
                        foreign.append(row)
                    elif self._satisfies(row, cell):
                        row.cell_id = cell.cell_id  # upgrade legacy ids
                        done[cell.cell_id] = row
            else:
                # Fresh run: start the file empty so the incremental
                # appends below are the only content.
                self.out_path.write_text("")
        pending = [c for c in cells if c.cell_id not in done]

        report = SweepReport(spec=self.spec, skipped=len(done))
        fresh = self._execute(pending, report)

        merged = [done.get(c.cell_id) or fresh[c.cell_id] for c in cells]
        if self.out_path is not None and had_existing_rows:
            # Canonicalise after a resume interleave: foreign rows first
            # (original order), then this spec's block in cell order.  A
            # fresh run skips this — the incremental appends already
            # wrote exactly the canonical content.
            write_results(self.out_path, foreign + merged)

        report.results = merged
        report.executed = len(fresh)
        report.failed = sum(1 for r in fresh.values() if not r.ok)
        report.wall_time_s = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    def _execute(
        self, pending: List[CellSpec], report: SweepReport
    ) -> Dict[str, CellResult]:
        """Run the pending cells via the job service.

        Results are *collected* — and appended to the output file — in
        canonical cell order, so the on-disk order never depends on
        completion order.  Inline, a cell runs only once the previous
        row is on disk; a pool executes all cells concurrently.
        """
        fresh: Dict[str, CellResult] = {}
        if not pending:
            return fresh
        if self.cluster is not None:
            return self._execute_cluster(pending, report)
        service = JobService(
            workers=self.jobs,
            cache_dir=self.cache_dir,
            cell_runner=self.cell_runner if self.cell_runner is not run_cell else None,
        )
        try:
            for cell, outcome in zip(pending, service.run(pending)):
                result = outcome.value
                if outcome.error is not None:  # the job raised, or its worker died
                    result = CellResult.for_cell(
                        cell, status="error", error=f"worker failure: {outcome.error!r}"
                    )
                fresh[cell.cell_id] = result
                if self.out_path is not None:
                    append_result(self.out_path, result)
        finally:
            service.close()
        report.store_stats = service.store_stats()
        return fresh

    # ------------------------------------------------------------------
    def _execute_cluster(
        self, pending: List[CellSpec], report: SweepReport
    ) -> Dict[str, CellResult]:
        """Run the pending cells on the distributed backend.

        The orchestrator accepts results in whatever order workers
        finish them; this method keeps the same incremental-persistence
        contract as the local path by holding completed rows in a
        reorder buffer and appending them to the output file only once
        every earlier pending cell (canonical order) has landed — the
        file is crash-resumable mid-sweep, exactly like an inline run.
        """
        from repro.cluster.orchestrator import Orchestrator
        from repro.cluster.protocol import parse_address

        host, port = parse_address(self.cluster)
        fresh: Dict[str, CellResult] = {}
        order = [c.cell_id for c in pending]
        flush_pos = 0

        def on_result(cell_id: str, result: CellResult) -> None:
            # Runs under the orchestrator lock, so appends serialise.
            nonlocal flush_pos
            fresh[cell_id] = result
            if self.out_path is None:
                return
            while flush_pos < len(order) and order[flush_pos] in fresh:
                append_result(self.out_path, fresh[order[flush_pos]])
                flush_pos += 1

        orchestrator = Orchestrator(
            pending,
            on_result=on_result,
            lease_ttl_s=self.lease_ttl_s,
            batch_size=self.cluster_batch,
            host=host,
            port=port,
        )
        with orchestrator:
            orchestrator.wait()
        report.store_stats = {
            stage: dict(c)
            for stage, c in orchestrator.stats.store_stats.items()
        }
        report.cluster_stats = orchestrator.stats.to_dict()
        return fresh
