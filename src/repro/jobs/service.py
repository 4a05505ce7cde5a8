"""The job service: ordered batch execution over the stage store.

:meth:`JobService.run` takes pipeline configs (or config dicts) and
sweep cells, and yields one :class:`Outcome` per job, in submission
order.  ``workers == 1`` runs inline and lazily: a job runs in-process
only when the iterator reaches it — deterministic, no pickling, and the
only mode that honours a custom ``cell_runner``.  ``workers > 1`` hands
every job up front to a ``ProcessPoolExecutor`` whose worker processes
each own a process-local default :class:`~repro.store.StageStore`
(attached to the service's disk cache when one is configured), so
artifacts warm up per worker and kernel caches never cross processes.

Every job reports its store-counter *delta*; deltas are additive, so
:meth:`JobService.store_stats` sums them across any number of workers.

>>> from repro.api.config import PipelineConfig
>>> with JobService() as service:
...     [outcome] = service.run([PipelineConfig(topology="grid", n=9)])
>>> outcome.error is None and outcome.value.num_slots >= 1
True
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple
from typing import Optional, Tuple, Union

from repro.api.config import PipelineConfig
from repro.errors import ConfigurationError
from repro.store.store import StageStore, StoreStats, get_default_store

__all__ = ["JobService", "Outcome"]

#: Sentinel: "no disk tier swap to restore on close".
_UNSET = object()


class Outcome(NamedTuple):
    """One finished job: its value, its store-counter delta, and the
    exception it raised (``value`` is ``None`` and ``delta`` empty then)."""

    value: Any
    delta: Dict[str, Dict[str, int]]
    error: Optional[Exception]


def _attach(store: StageStore, cache_dir: Optional[str]) -> Any:
    """Attach ``cache_dir`` as ``store``'s disk tier unless it already is;
    returns the replaced tier, or ``_UNSET`` when nothing changed."""
    current = store.disk
    if cache_dir is None or (current is not None and Path(current.root) == Path(cache_dir)):
        return _UNSET
    return store.attach_disk(cache_dir)


def _execute(
    job: Any,
    store: Optional[StageStore],
    cell_runner: Optional[Callable[[Any], Any]],
    cache_dir: Optional[str],
) -> Tuple[Any, Dict[str, Dict[str, int]]]:
    """Run one job against ``store``; return ``(value, stats_delta)``.

    A pool worker passes ``store=None``: its process default store, with
    ``cache_dir`` attached.
    """
    if store is None:
        store = get_default_store()
        _attach(store, cache_dir)
    before = store.stats.snapshot()
    if isinstance(job, PipelineConfig):
        from repro.api.pipeline import Pipeline

        value = Pipeline(job, store=store).run()
    elif cell_runner is not None:
        value = cell_runner(job)
    else:
        from repro.runner.engine import run_cell

        value = run_cell(job, store=store)
    return value, store.stats.delta(before)


class JobService:
    """Runs pipeline configs and sweep cells on a worker backend.

    Parameters
    ----------
    workers:
        Worker processes; 1 executes inline.
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
        self._stats_total: Dict[str, Dict[str, int]] = {}
        self._closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._store: Optional[StageStore] = None
        self._restore_disk: Any = _UNSET
        if workers == 1:
            self._store = store if store is not None else get_default_store()
            self._restore_disk = _attach(self._store, self.cache_dir)
        else:
            self._pool = ProcessPoolExecutor(max_workers=workers)

    def run(self, jobs: Iterable[Any]) -> Iterator[Outcome]:
        """Run ``jobs`` and yield one :class:`Outcome` per job, in order.

        A :class:`~repro.api.config.PipelineConfig` or config dict
        yields a :class:`~repro.api.pipeline.RunArtifact`; a sweep cell
        yields a :class:`~repro.runner.results.CellResult`, which records
        library errors itself (error isolation is the runner's
        contract).  A closed service or a bad config dict raises here,
        at the call.  Inline, a job runs when the iterator reaches it;
        a pool receives every job up front.
        """
        if self._closed:
            raise ConfigurationError("JobService is closed")
        batch = [PipelineConfig.from_dict(j) if isinstance(j, Mapping) else j for j in jobs]
        calls: List[Callable[[], Any]]
        if self._pool is None:
            calls = [partial(_execute, j, self._store, self.cell_runner, None) for j in batch]
        else:
            calls = [self._pool.submit(_execute, j, None, None, self.cache_dir).result
                     for j in batch]
        return self._collect(calls)

    def _collect(self, calls: List[Callable[[], Any]]) -> Iterator[Outcome]:
        for call in calls:
            try:
                value, delta = call()
            except Exception as exc:
                yield Outcome(None, {}, exc)
            else:
                StoreStats.merge(self._stats_total, delta)
                yield Outcome(value, delta, None)

    @property
    def store(self) -> Optional[StageStore]:
        """The inline backend's store (``None`` for a pool: each worker owns one)."""
        return self._store

    def store_stats(self) -> Dict[str, Dict[str, int]]:
        """Summed per-stage counter deltas of every collected outcome."""
        return {stage: dict(c) for stage, c in self._stats_total.items()}

    def close(self) -> None:
        """Shut the pool down, or restore the inline disk tier (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._restore_disk is not _UNSET:
            assert self._store is not None  # only inline services swap tiers
            self._store.attach_disk(self._restore_disk)
            self._restore_disk = _UNSET

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "inline" if self.workers == 1 else f"pool({self.workers})"
        return f"JobService({mode}, cache_dir={self.cache_dir!r})"
