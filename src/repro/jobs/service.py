"""The asynchronous job service: batched execution over the stage store.

A :class:`JobService` is the execution surface above
:class:`~repro.api.pipeline.Pipeline`: callers *submit* work (a
:class:`~repro.api.config.PipelineConfig`, a batch of them, or sweep
cells) and get :class:`JobHandle` objects back — status, result,
cancellation — instead of blocking on each run.

Two execution backends share one contract:

* ``workers == 1`` — inline, lazily: a job runs in-process on the first
  ``result()`` call, in submission order.  Fully deterministic, no
  pickling, and the only mode that honours a custom ``cell_runner``.
* ``workers > 1`` — a ``ProcessPoolExecutor``; each worker process owns
  a process-local default :class:`~repro.store.StageStore` (attached to
  the service's disk cache when one is configured), so stage artifacts
  warm up per worker and kernel caches never cross process boundaries.

Every job, in both modes, routes stage computation through the store
and reports the per-job counter *delta* back to the service; the sums
(:meth:`JobService.store_stats`) are meaningful across any number of
worker processes because deltas are additive.

>>> from repro.api.config import PipelineConfig
>>> with JobService() as service:
...     handle = service.submit(PipelineConfig(topology="grid", n=9))
...     artifact = handle.result()
>>> artifact.num_slots >= 1 and handle.status() is JobStatus.DONE
True
"""

from __future__ import annotations

import enum
import itertools
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.config import PipelineConfig
from repro.errors import ConfigurationError, JobError
from repro.store.store import (
    StageStore,
    StoreStats,
    get_default_store,
)

__all__ = ["JobHandle", "JobService", "JobStatus"]


class JobStatus(str, enum.Enum):
    """Lifecycle of one submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


# ----------------------------------------------------------------------
# Worker-side execution (module-level, hence pool-picklable)
# ----------------------------------------------------------------------
def _worker_store(cache_dir: Optional[str]) -> StageStore:
    """The worker process's default store, with the disk tier attached."""
    store = get_default_store()
    if cache_dir is not None:
        current = store.disk
        if current is None or Path(current.root) != Path(cache_dir):
            store.attach_disk(cache_dir)
    return store


def _execute_job(
    kind: str, payload: Any, cache_dir: Optional[str]
) -> Tuple[Any, Dict[str, Dict[str, int]]]:
    """Run one job against the process-local store.

    Returns ``(value, stats_delta)`` — the delta (not a cumulative
    snapshot) so the coordinating service can sum contributions from any
    number of workers.
    """
    store = _worker_store(cache_dir)
    before = store.stats.snapshot()
    if kind == "cell":
        from repro.runner.engine import run_cell

        value = run_cell(payload, store=store)
    elif kind == "pipeline":
        from repro.api.pipeline import Pipeline

        config = PipelineConfig.from_dict(payload)
        value = Pipeline(config, store=store).run()
    else:  # pragma: no cover - internal invariant
        raise ConfigurationError(
            f"unknown job kind {kind!r}; valid kinds: cell, pipeline"
        )
    return value, store.stats.delta(before)


class JobHandle:
    """One submitted job: status, result, cancellation.

    Handles are created by :class:`JobService`; ``result()`` blocks
    until the job finishes (executing it inline for single-worker
    services) and raises :class:`~repro.errors.JobError` if the job
    failed or was cancelled.
    """

    def __init__(
        self,
        job_id: int,
        label: str,
        *,
        thunk: Optional[Callable[[], Tuple[Any, Dict]]] = None,
        future: Optional[Future] = None,
        on_stats: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        self.job_id = job_id
        self.label = label
        self._thunk = thunk
        self._future = future
        self._on_stats = on_stats
        self._status = JobStatus.PENDING
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._stats_reported = False

    # ------------------------------------------------------------------
    def status(self) -> JobStatus:
        if self._future is not None:
            self._sync_from_future()
        return self._status

    def done(self) -> bool:
        return self.status() in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)

    def error(self) -> Optional[str]:
        """The failure message, or ``None`` while pending/successful."""
        if self.status() is JobStatus.FAILED and self._error is not None:
            return f"{type(self._error).__name__}: {self._error}"
        return None

    def cancel(self) -> bool:
        """Cancel if not yet running; returns whether it took effect."""
        if self._future is not None:
            cancelled = self._future.cancel()
            if cancelled:
                self._status = JobStatus.CANCELLED
            return cancelled
        if self._status is JobStatus.PENDING:
            self._status = JobStatus.CANCELLED
            return True
        return False

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's value, computing/waiting as needed.

        Raises
        ------
        JobError
            If the job raised or was cancelled.  (Sweep-cell jobs
            almost never raise: ``run_cell`` converts library errors
            into ``status == "error"`` records.)
        """
        if self._status is JobStatus.CANCELLED:
            raise JobError(f"job {self.label!r} was cancelled")
        if self._future is not None:
            try:
                value, delta = self._future.result(timeout)
            except CancelledError:
                self._status = JobStatus.CANCELLED
                raise JobError(f"job {self.label!r} was cancelled") from None
            except Exception as exc:
                self._status = JobStatus.FAILED
                self._error = exc
                raise JobError(f"job {self.label!r} failed: {exc}") from exc
            self._finish(value, delta)
            return self._value
        if self._status is JobStatus.PENDING:
            self._status = JobStatus.RUNNING
            try:
                value, delta = self._thunk()
            except Exception as exc:
                self._status = JobStatus.FAILED
                self._error = exc
                raise JobError(f"job {self.label!r} failed: {exc}") from exc
            self._finish(value, delta)
        elif self._status is JobStatus.FAILED:
            raise JobError(
                f"job {self.label!r} failed: {self._error}"
            ) from self._error
        return self._value

    # ------------------------------------------------------------------
    def _finish(self, value: Any, delta: Dict) -> None:
        self._value = value
        self._status = JobStatus.DONE
        if self._on_stats is not None and not self._stats_reported:
            self._stats_reported = True
            self._on_stats(delta)

    def _sync_from_future(self) -> None:
        fut = self._future
        if fut.cancelled():
            self._status = JobStatus.CANCELLED
        elif fut.running():
            if self._status is JobStatus.PENDING:
                self._status = JobStatus.RUNNING
        elif fut.done() and self._status in (JobStatus.PENDING, JobStatus.RUNNING):
            # Completed but not yet collected; classify without raising.
            exc = fut.exception()
            if exc is not None:
                self._status = JobStatus.FAILED
                self._error = exc
            else:
                value, delta = fut.result()
                self._finish(value, delta)

    def __repr__(self) -> str:
        return f"JobHandle(id={self.job_id}, label={self.label!r}, status={self._status.value})"


class JobService:
    """Submits pipeline runs and sweep cells to a worker backend.

    Parameters
    ----------
    workers:
        Worker processes; 1 executes inline (lazily, on ``result()``).
    cache_dir:
        Optional on-disk stage-cache directory.  Inline services attach
        it to the process default store for the service's lifetime
        (restoring the previous tier on :meth:`close`); pool workers
        attach it to their own per-process stores.
    store:
        Explicit store for inline execution (default: the process-wide
        default store, which is what makes artifacts warm across
        consecutive services).
    cell_runner:
        Test-only override of :func:`~repro.runner.engine.run_cell`;
        requires ``workers == 1`` (pools need the module-level runner).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: Union[str, Path, None] = None,
        store: Optional[StageStore] = None,
        cell_runner: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if cell_runner is not None and workers != 1:
            raise ConfigurationError(
                "a custom cell_runner requires jobs=1 (pools need the "
                "module-level run_cell)"
            )
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cell_runner = cell_runner
        self._pool: Optional[ProcessPoolExecutor] = None
        self._ids = itertools.count()
        self._stats_total: Dict[str, Dict[str, int]] = {}
        self._closed = False
        self._store: Optional[StageStore] = None
        self._restore_disk: Any = _UNSET
        if workers == 1:
            self._store = store if store is not None else get_default_store()
            if self.cache_dir is not None:
                current = self._store.disk
                if current is None or Path(current.root) != Path(self.cache_dir):
                    self._restore_disk = self._store.attach_disk(self.cache_dir)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, config: Union[PipelineConfig, Mapping]) -> JobHandle:
        """Queue one pipeline run; ``result()`` is its
        :class:`~repro.api.pipeline.RunArtifact`."""
        if isinstance(config, Mapping):
            config = PipelineConfig.from_dict(config)
        label = (
            f"{config.topology}/n{config.n}/{config.power}"
            f"/{config.tree}/{config.scheduler}/s{config.seed}"
        )
        return self._dispatch("pipeline", config.to_dict(), label)

    def submit_many(
        self, configs: Iterable[Union[PipelineConfig, Mapping]]
    ) -> List[JobHandle]:
        """Queue a batch of pipeline runs (grid workloads)."""
        return [self.submit(config) for config in configs]

    def submit_cells(self, cells: Sequence[Any]) -> List[JobHandle]:
        """Queue sweep cells; each ``result()`` is a
        :class:`~repro.runner.results.CellResult` (error-isolated)."""
        return [self._dispatch("cell", cell, cell.cell_id) for cell in cells]

    def _dispatch(self, kind: str, payload: Any, label: str) -> JobHandle:
        if self._closed:
            raise ConfigurationError("JobService is closed")
        job_id = next(self._ids)
        if self.workers == 1:
            thunk = self._inline_thunk(kind, payload)
            return JobHandle(job_id, label, thunk=thunk, on_stats=self._count)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        future = self._pool.submit(_execute_job, kind, payload, self.cache_dir)
        return JobHandle(job_id, label, future=future, on_stats=self._count)

    def _inline_thunk(self, kind: str, payload: Any) -> Callable[[], Tuple[Any, Dict]]:
        store = self._store

        def thunk() -> Tuple[Any, Dict]:
            before = store.stats.snapshot()
            if kind == "cell" and self.cell_runner is not None:
                value = self.cell_runner(payload)
            elif kind == "cell":
                from repro.runner.engine import run_cell

                value = run_cell(payload, store=store)
            else:
                from repro.api.pipeline import Pipeline

                config = PipelineConfig.from_dict(payload)
                value = Pipeline(config, store=store).run()
            return value, store.stats.delta(before)

        return thunk

    # ------------------------------------------------------------------
    # Stats and lifecycle
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[StageStore]:
        """The inline backend's stage store (``None`` for a pool —
        each worker process owns a private store there)."""
        return self._store

    def _count(self, delta: Dict) -> None:
        StoreStats.merge(self._stats_total, delta)

    def store_stats(self) -> Dict[str, Dict[str, int]]:
        """Summed per-stage counter deltas of every collected job.

        Additive across worker processes; a job's delta is counted when
        its result is first retrieved.
        """
        return {stage: dict(c) for stage, c in self._stats_total.items()}

    def close(self, *, cancel_pending: bool = False) -> None:
        """Shut down the backend (idempotent).

        Inline services restore the default store's previous disk tier;
        pool services shut the pool down (optionally cancelling queued
        futures first).
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel_pending)
            self._pool = None
        if self._restore_disk is not _UNSET:
            self._store.attach_disk(self._restore_disk)
            self._restore_disk = _UNSET

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "inline" if self.workers == 1 else f"pool({self.workers})"
        return f"JobService({mode}, cache_dir={self.cache_dir!r})"


#: Sentinel: "no disk tier swap to restore on close".
_UNSET = object()
