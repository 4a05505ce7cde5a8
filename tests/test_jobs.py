"""Tests for the job service (ordered outcomes, inline + pool backends)."""

import pytest

from repro.api.config import PipelineConfig
from repro.api.pipeline import RunArtifact
from repro.errors import ConfigurationError
from repro.jobs import JobService, Outcome
from repro.runner.results import CellResult
from repro.runner.spec import CellSpec
from repro.store import StageStore, get_default_store, reset_default_store


def cfg(**overrides) -> PipelineConfig:
    base = dict(topology="square", n=12, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


def cell(**overrides) -> CellSpec:
    base = dict(topology="square", n=10, mode="global", alpha=3.0, beta=1.0, seed=0)
    base.update(overrides)
    return CellSpec(**base)


def empty_result(c: CellSpec) -> CellResult:
    return CellResult(
        cell_id=c.cell_id, topology=c.topology, n=c.n, mode=c.mode,
        alpha=c.alpha, beta=c.beta, seed=c.seed,
    )


class TestInlineService:
    def test_result_runs_and_completes(self):
        with JobService(store=StageStore()) as service:
            [outcome] = service.run([cfg()])
            assert isinstance(outcome, Outcome)
            assert isinstance(outcome.value, RunArtifact)
            assert outcome.value.num_slots >= 1
            assert outcome.error is None
            assert outcome.delta == service.store_stats()

    def test_inline_jobs_run_only_when_reached(self):
        seen = []

        def runner(c):
            seen.append(c.seed)
            return empty_result(c)

        with JobService(cell_runner=runner, store=StageStore()) as service:
            outcomes = service.run([cell(seed=s) for s in range(3)])
            assert seen == []
            next(outcomes)
            assert seen == [0]
            assert [o.value.seed for o in outcomes] == [1, 2]
        assert seen == [0, 1, 2]

    def test_run_accepts_config_dicts_and_cells(self):
        with JobService(store=StageStore()) as service:
            values = [o.value for o in service.run([cfg(), cfg().to_dict(), cell()])]
        assert [type(v) for v in values] == [RunArtifact, RunArtifact, CellResult]
        assert values[1].config == cfg()

    def test_run_preserves_order(self):
        configs = [cfg(n=n) for n in (8, 12, 16)]
        with JobService(store=StageStore()) as service:
            sizes = [len(o.value.points) for o in service.run(configs)]
        assert sizes == [8, 12, 16]

    def test_failed_job_reports_error(self):
        # exponential_line overflows IEEE doubles far below n=1100.
        with JobService(store=StageStore()) as service:
            failed, ok = service.run([cfg(topology="exponential", n=1100), cfg()])
        assert isinstance(failed.error, ConfigurationError)
        assert failed.value is None and failed.delta == {}
        assert ok.error is None and ok.value.num_slots >= 1  # the batch goes on

    def test_batch_shares_stages_through_the_store(self):
        store = StageStore()
        grid = [
            cfg(power=mode, alpha=alpha)
            for mode in ("global", "oblivious")
            for alpha in (3.0, 4.0)
        ]
        with JobService(store=store) as service:
            for _ in service.run(grid):
                pass
            stats = service.store_stats()
        assert stats["deploy"]["builds"] == 1
        assert stats["tree"]["builds"] == 1
        assert stats["schedule"]["builds"] == len(grid)

    def test_cell_jobs_return_cell_results(self):
        with JobService(store=StageStore()) as service:
            results = [o.value for o in service.run([cell(), cell(mode="oblivious")])]
        assert all(isinstance(r, CellResult) for r in results)
        assert all(r.ok and r.slots >= 1 for r in results)
        assert results[1].mode == "oblivious"

    def test_cell_jobs_isolate_errors_in_the_record(self):
        with JobService(store=StageStore()) as service:
            [outcome] = service.run([cell(topology="exponential", n=1100)])
        assert outcome.error is None  # run_cell captures it in the row
        record = outcome.value
        assert record.status == "error" and "ConfigurationError" in record.error

    def test_custom_cell_runner(self):
        seen = []

        def runner(c):
            seen.append(c.cell_id)
            return empty_result(c)

        with JobService(cell_runner=runner, store=StageStore()) as service:
            [outcome] = service.run([cell()])
            assert outcome.value.cell_id == cell().cell_id
        assert seen == [cell().cell_id]

    def test_run_after_close_rejected(self):
        service = JobService(store=StageStore())
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.run([cfg()])

    def test_bad_config_dict_raises_at_the_call(self):
        seen = []
        with JobService(cell_runner=seen.append, store=StageStore()) as service:
            with pytest.raises(ConfigurationError, match="unknown PipelineConfig"):
                service.run([cell(), {"bogus": 1}])
        assert seen == []  # nothing ran

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            JobService(workers=0)

    def test_cell_runner_requires_single_worker(self):
        with pytest.raises(ConfigurationError, match="jobs=1"):
            JobService(workers=2, cell_runner=lambda c: None)

    def test_cache_dir_attachment_is_scoped(self, tmp_path):
        reset_default_store()
        try:
            default = get_default_store()
            assert default.disk is None
            service = JobService(cache_dir=tmp_path / "cache")
            assert default.disk is not None
            list(service.run([cfg()]))
            service.close()
            assert default.disk is None  # restored
            assert (tmp_path / "cache" / "deploy").is_dir()  # but persisted
        finally:
            reset_default_store()


class TestPoolService:
    def test_pool_matches_inline(self, tmp_path):
        grid = [cfg(n=n, power=mode) for n in (8, 12) for mode in ("global", "uniform")]
        with JobService(store=StageStore()) as inline:
            expected = [o.value.num_slots for o in inline.run(grid)]
        with JobService(workers=2) as pool:
            outcomes = list(pool.run(grid))
            stats = pool.store_stats()
        assert [o.value.num_slots for o in outcomes] == expected
        assert all(o.error is None for o in outcomes)
        assert stats["deploy"]["builds"] + stats["deploy"]["hits"] > 0

    def test_pool_cell_jobs(self):
        cells = [cell(seed=s) for s in range(3)]
        with JobService(workers=2) as pool:
            results = [o.value for o in pool.run(cells)]
        assert [r.seed for r in results] == [0, 1, 2]
        assert all(r.ok for r in results)

    def test_pool_failure_surfaces_in_the_outcome(self):
        bad = cfg(topology="exponential", n=1100)
        with JobService(store=StageStore()) as inline:
            [expected] = inline.run([bad])
        with JobService(workers=2) as pool:
            failed, ok = pool.run([bad, cfg()])
        assert isinstance(failed.error, ConfigurationError)
        assert str(failed.error) == str(expected.error)
        assert failed.value is None and ok.error is None
