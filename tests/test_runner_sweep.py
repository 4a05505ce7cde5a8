"""Tests for the sweep engine (spec, execution, persistence, resume)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.store import reset_default_store
from repro.runner import (
    CellResult,
    SweepEngine,
    SweepSpec,
    TIMING_FIELDS,
    completed_cell_ids,
    group_summary,
    read_results,
    run_cell,
    summary_table,
    write_results,
)
from repro.runner.spec import CellSpec


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        topologies=("square", "exponential"),
        ns=(8, 12),
        modes=("global",),
        seeds=2,
    )
    base.update(overrides)
    return SweepSpec(**base)


def stripped(path):
    """JSONL rows without the timing fields (determinism comparisons)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            for field in TIMING_FIELDS:
                row.pop(field, None)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# SweepSpec
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_valid_spec_normalises_to_tuples(self):
        spec = SweepSpec(topologies=["square"], ns=[10], modes=["global"])
        assert spec.topologies == ("square",) and spec.ns == (10,)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="topology"):
            tiny_spec(topologies=("hexagon",))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            tiny_spec(modes=("psychic",))

    def test_unknown_tree_rejected(self):
        with pytest.raises(ConfigurationError, match="tree"):
            tiny_spec(trees=("steiner",))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError, match="scheduler"):
            tiny_spec(schedulers=("oracle",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            tiny_spec(ns=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            tiny_spec(ns=(8, 8))

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError, match="n must be"):
            tiny_spec(ns=(1,))

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            tiny_spec(alphas=(2.0,))

    def test_bad_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            tiny_spec(seeds=0)

    def test_bad_measurement_rejected(self):
        with pytest.raises(ConfigurationError, match="measurement"):
            tiny_spec(measure=("entropy",))

    def test_scalar_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="sequence"):
            SweepSpec(topologies="square", ns=(10,), modes=("global",))

    def test_round_trips_through_dict(self):
        spec = tiny_spec(alphas=(3.0, 4.0), num_frames=5)
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec


class TestCellEnumeration:
    def test_num_cells_is_grid_product(self):
        spec = tiny_spec(modes=("global", "oblivious"), alphas=(3.0, 4.0))
        assert spec.num_cells == 2 * 2 * 2 * 1 * 1 * 2 * 1 * 2
        assert len(list(spec.cells())) == spec.num_cells

    def test_tree_and_scheduler_axes_multiply(self):
        spec = tiny_spec(
            seeds=1, trees=("mst", "matching"), schedulers=("certified", "tdma")
        )
        assert spec.num_cells == 2 * 2 * 1 * 2 * 2
        combos = {(c.tree, c.scheduler) for c in spec.cells()}
        assert combos == {
            ("mst", "certified"), ("mst", "tdma"),
            ("matching", "certified"), ("matching", "tdma"),
        }

    def test_cell_ids_unique_and_stable(self):
        spec = tiny_spec()
        ids = [c.cell_id for c in spec.cells()]
        assert len(set(ids)) == len(ids)
        assert ids == [c.cell_id for c in spec.cells()]
        assert ids[0] == "square/n8/global/mst/certified/a3/b1/s0"

    def test_enum_modes_normalise_to_names(self):
        from repro.scheduling.builder import PowerMode

        spec = tiny_spec(seeds=1, modes=(PowerMode.GLOBAL, "oblivious"))
        assert spec.modes == ("global", "oblivious")
        ids = [c.cell_id for c in spec.cells()]
        assert ids[0] == "square/n8/global/mst/certified/a3/b1/s0"

    def test_base_seed_shifts_seed_axis(self):
        seeds = {c.seed for c in tiny_spec(base_seed=7).cells()}
        assert seeds == {7, 8}

    def test_enumeration_order_topology_major(self):
        topos = [c.topology for c in tiny_spec(seeds=1).cells()]
        assert topos == ["square", "square", "exponential", "exponential"]


# ----------------------------------------------------------------------
# run_cell
# ----------------------------------------------------------------------
class TestRunCell:
    def test_schedule_measurement(self):
        cell = CellSpec(topology="square", n=12, mode="global", alpha=3.0, beta=1.0, seed=0)
        result = run_cell(cell)
        assert result.ok and result.slots >= 1
        assert result.rate == pytest.approx(1.0 / result.slots)
        assert result.predicted_slots is not None and result.predicted_slots_cor1 is not None

    def test_simulation_fields(self):
        cell = CellSpec(
            topology="square", n=10, mode="global", alpha=3.0, beta=1.0, seed=1,
            num_frames=4,
        )
        result = run_cell(cell)
        assert result.frames_completed == 4 and result.stable

    def test_g1_measurement(self):
        cell = CellSpec(
            topology="square", n=15, mode="global", alpha=3.0, beta=1.0, seed=0,
            measure=("g1",),
        )
        result = run_cell(cell)
        assert result.g1_colors >= 1 and result.refine_t >= 1
        assert result.slots is None  # schedule not requested

    def test_tree_and_scheduler_recorded_in_row(self):
        cell = CellSpec(
            topology="square", n=12, mode="oblivious", alpha=3.0, beta=1.0, seed=0,
            tree="matching", scheduler="tdma",
        )
        result = run_cell(cell)
        assert result.ok
        assert result.tree == "matching" and result.scheduler == "tdma"
        assert result.slots == 11  # tdma: one link per slot
        assert result.initial_colors is None  # baselines carry no report

    def test_failure_is_captured_not_raised(self):
        # exponential_line overflows IEEE doubles far below n=1100.
        cell = CellSpec(
            topology="exponential", n=1100, mode="global", alpha=3.0, beta=1.0, seed=0
        )
        result = run_cell(cell)
        assert result.status == "error" and "ConfigurationError" in result.error
        assert result.slots is None


# ----------------------------------------------------------------------
# SweepEngine
# ----------------------------------------------------------------------
class TestEngine:
    def test_inline_run_covers_grid(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        report = SweepEngine(tiny_spec(), out_path=out).run()
        assert report.executed == report.total == 8
        assert report.failed == 0 and report.skipped == 0
        assert len(read_results(out)) == 8
        assert "sweep: 8 cells" in report.summary()

    def test_records_follow_canonical_order(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        SweepEngine(spec, out_path=out).run()
        assert [r.cell_id for r in read_results(out)] == [
            c.cell_id for c in spec.cells()
        ]

    def test_deterministic_rerun_identical_modulo_timing(self, tmp_path):
        spec = tiny_spec(num_frames=3)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        SweepEngine(spec, out_path=a).run()
        SweepEngine(spec, out_path=b).run()
        assert stripped(a) == stripped(b)

    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec()
        a, b = tmp_path / "serial.jsonl", tmp_path / "par.jsonl"
        SweepEngine(spec, jobs=1, out_path=a).run()
        SweepEngine(spec, jobs=2, out_path=b).run()
        assert stripped(a) == stripped(b)

    def test_failed_cell_does_not_kill_sweep(self, tmp_path):
        spec = SweepSpec(
            topologies=("exponential",), ns=(8, 1100), modes=("global",)
        )
        out = tmp_path / "sweep.jsonl"
        report = SweepEngine(spec, out_path=out).run()
        assert report.failed == 1 and report.executed == 2
        by_n = {r.n: r for r in report.results}
        assert by_n[8].ok and not by_n[1100].ok

    def test_resume_skips_completed_cells(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        first = SweepEngine(spec, out_path=out).run()
        second = SweepEngine(spec, out_path=out).run()
        assert second.executed == 0 and second.skipped == first.total
        assert len(read_results(out)) == spec.num_cells

    def test_resume_completes_partial_manifest(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        SweepEngine(spec, out_path=out).run()
        rows = read_results(out)
        write_results(out, rows[:3])  # truncate: simulate a crash
        report = SweepEngine(spec, out_path=out).run()
        assert report.skipped == 3 and report.executed == spec.num_cells - 3
        assert stripped(out) != []  # file rebuilt
        assert [r.cell_id for r in read_results(out)] == [r.cell_id for r in rows]

    def test_resume_retries_failed_cells(self, tmp_path):
        spec = SweepSpec(topologies=("exponential",), ns=(8, 1100), modes=("global",))
        out = tmp_path / "sweep.jsonl"
        SweepEngine(spec, out_path=out).run()
        assert len(completed_cell_ids(out)) == 1  # error row is not "completed"
        report = SweepEngine(spec, out_path=out).run()
        assert report.skipped == 1 and report.executed == 1  # the failed cell reruns

    def test_resume_reruns_when_frames_added(self, tmp_path):
        # Resume is content-based: a row without simulation fields does
        # not satisfy a spec that now asks for --frames.
        out = tmp_path / "sweep.jsonl"
        SweepEngine(tiny_spec(), out_path=out).run()
        report = SweepEngine(tiny_spec(num_frames=3), out_path=out).run()
        assert report.executed == report.total and report.skipped == 0
        assert all(r.frames_completed == 3 for r in read_results(out))

    def test_resume_reruns_when_measure_added(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec(seeds=1)
        SweepEngine(spec, out_path=out).run()
        report = SweepEngine(
            tiny_spec(seeds=1, measure=("schedule", "g1")), out_path=out
        ).run()
        assert report.executed == report.total
        assert all(r.g1_colors is not None for r in read_results(out))

    def test_resume_preserves_foreign_rows(self, tmp_path):
        # Two different grids sharing one file: the second sweep must
        # not erase the first's rows.
        out = tmp_path / "sweep.jsonl"
        first = tiny_spec(ns=(8,), seeds=1)
        second = tiny_spec(ns=(12,), seeds=1)
        SweepEngine(first, out_path=out).run()
        report = SweepEngine(second, out_path=out).run()
        assert report.executed == second.num_cells and report.skipped == 0
        ids = {r.cell_id for r in read_results(out)}
        assert {c.cell_id for c in first.cells()} <= ids
        assert {c.cell_id for c in second.cells()} <= ids

    def test_resume_upgrades_pre_redesign_cell_ids(self, tmp_path):
        # Files written before the tree/scheduler axes used the shorter
        # id format; resuming them must reuse (and upgrade) those rows
        # instead of re-running everything and leaving duplicates.
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        SweepEngine(spec, out_path=out).run()
        rows = read_results(out)
        for row in rows:  # rewrite the file in the legacy id format
            row.cell_id = (
                f"{row.topology}/n{row.n}/{row.mode}"
                f"/a{row.alpha:g}/b{row.beta:g}/s{row.seed}"
            )
        write_results(out, rows)
        report = SweepEngine(spec, out_path=out).run()
        assert report.executed == 0 and report.skipped == spec.num_cells
        upgraded = read_results(out)
        assert len(upgraded) == spec.num_cells  # no duplicate rows
        assert {r.cell_id for r in upgraded} == {c.cell_id for c in spec.cells()}

    def test_resume_tolerates_truncated_trailing_line(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        SweepEngine(spec, out_path=out).run()
        text = out.read_text()
        out.write_text(text[: len(text) - 30])  # crash mid-append
        report = SweepEngine(spec, out_path=out).run()
        assert report.executed == 1 and report.skipped == spec.num_cells - 1
        assert len(read_results(out)) == spec.num_cells

    def test_interior_garbage_rejected(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        SweepEngine(tiny_spec(), out_path=out).run()
        lines = out.read_text().splitlines()
        lines[1] = "not json"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="not a sweep result"):
            read_results(out)

    def test_no_resume_reruns_everything(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        SweepEngine(spec, out_path=out).run()
        report = SweepEngine(spec, out_path=out, resume=False).run()
        assert report.executed == spec.num_cells
        assert len(read_results(out)) == spec.num_cells

    def test_custom_cell_runner_injects_failures(self, tmp_path):
        spec = tiny_spec(seeds=1)
        calls = []

        def flaky(cell):
            calls.append(cell.cell_id)
            result = run_cell(cell)
            if cell.topology == "exponential":
                result.status = "error"
                result.error = "injected"
            return result

        report = SweepEngine(spec, cell_runner=flaky).run()
        assert len(calls) == spec.num_cells
        assert report.failed == 2

    def test_error_row_shares_the_ok_rows_identity(self):
        """A job that raises becomes an error row carrying the same
        identity fields as the ok row run_cell returns for that cell."""
        spec = tiny_spec(topologies=("square",), ns=(8,), seeds=1, epochs=2)
        (cell,) = spec.cells()

        def broken(cell):
            raise RuntimeError("worker died")

        ok = run_cell(cell)
        (failed,) = SweepEngine(spec, cell_runner=broken).run().results
        assert ok.ok and failed.status == "error" and "worker died" in failed.error
        identity = (
            "cell_id", "topology", "n", "mode", "alpha", "beta", "seed",
            "tree", "scheduler", "scenario", "scenario_epochs",
        )
        assert [getattr(failed, f) for f in identity] == [getattr(ok, f) for f in identity]
        assert failed.scenario_epochs == 2

    def test_inline_row_is_appended_before_the_next_cell_runs(self, tmp_path):
        # Crash-resume contract: a killed inline sweep loses at most the
        # cell that was running, because every finished row is on disk.
        out = tmp_path / "sweep.jsonl"
        spec = tiny_spec()
        rows_on_disk = []

        def counting(cell):
            rows_on_disk.append(len(out.read_text().splitlines()))
            return run_cell(cell)

        SweepEngine(spec, jobs=1, out_path=out, cell_runner=counting).run()
        assert rows_on_disk == list(range(spec.num_cells))

    def test_custom_cell_runner_requires_single_job(self):
        with pytest.raises(ConfigurationError, match="jobs=1"):
            SweepEngine(tiny_spec(), jobs=2, cell_runner=lambda c: None).run()

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            SweepEngine(tiny_spec(), jobs=0)


# ----------------------------------------------------------------------
# Stage-store integration (Execution API v2)
# ----------------------------------------------------------------------
class TestEngineStageStore:
    def test_model_axis_sweep_builds_each_stage_once(self, tmp_path):
        # The acceptance grid: topology x mode x alpha with fixed n/seed
        # must build each distinct deployment and tree exactly once —
        # at least 2x fewer stage builds than cells.
        reset_default_store()
        spec = SweepSpec(
            topologies=("square", "exponential"),
            ns=(10,),
            modes=("global", "oblivious"),
            alphas=(3.0, 4.0),
        )
        report = SweepEngine(spec, out_path=tmp_path / "sweep.jsonl").run()
        assert report.executed == spec.num_cells == 8
        builds = report.store_stats
        assert builds["deploy"]["builds"] == 2  # one per distinct deployment
        assert builds["tree"]["builds"] == 2
        assert builds["schedule"]["builds"] == 8  # every cell's model differs
        assert (
            builds["deploy"]["builds"] + builds["tree"]["builds"]
            <= spec.num_cells / 2
        )

    def test_parallel_matches_serial_with_store(self, tmp_path):
        reset_default_store()
        spec = SweepSpec(
            topologies=("square",),
            ns=(12,),
            modes=("global", "oblivious"),
            alphas=(3.0, 3.5),
        )
        a, b = tmp_path / "serial.jsonl", tmp_path / "par.jsonl"
        SweepEngine(spec, jobs=1, out_path=a).run()
        SweepEngine(spec, jobs=2, out_path=b).run()
        assert stripped(a) == stripped(b)

    def test_resumed_sweep_reuses_stages_from_disk(self, tmp_path):
        # Satellite contract: when cells of a resumed sweep re-run
        # (content-based resume: frames were added), stages already
        # persisted in the disk cache must not be recomputed.
        out, cache = tmp_path / "sweep.jsonl", tmp_path / "cache"
        spec = tiny_spec(seeds=1)
        reset_default_store()
        first = SweepEngine(spec, out_path=out, cache_dir=cache).run()
        assert first.store_stats["deploy"]["builds"] == spec.num_cells
        reset_default_store()  # models a fresh process: memory tier gone
        resumed = SweepEngine(
            tiny_spec(seeds=1, num_frames=2), out_path=out, cache_dir=cache
        ).run()
        assert resumed.executed == spec.num_cells  # frames force re-runs
        stats = resumed.store_stats
        assert stats["deploy"]["builds"] == 0
        assert stats["deploy"]["disk_hits"] == spec.num_cells
        assert stats["tree"]["builds"] == 0
        assert stats["schedule"]["builds"] == 0  # certified pipeline cached too
        assert all(r.frames_completed == 2 for r in read_results(out))

    def test_resume_with_cache_skips_completed_and_upgrades_legacy(self, tmp_path):
        # Legacy-alias rows upgrade cleanly with the disk store active.
        out, cache = tmp_path / "sweep.jsonl", tmp_path / "cache"
        spec = tiny_spec(seeds=1)
        SweepEngine(spec, out_path=out, cache_dir=cache).run()
        rows = read_results(out)
        for row in rows:  # rewrite the file in the legacy id format
            row.cell_id = (
                f"{row.topology}/n{row.n}/{row.mode}"
                f"/a{row.alpha:g}/b{row.beta:g}/s{row.seed}"
            )
        write_results(out, rows)
        reset_default_store()
        report = SweepEngine(spec, out_path=out, cache_dir=cache).run()
        assert report.executed == 0 and report.skipped == spec.num_cells
        assert report.store_stats == {}  # nothing ran, nothing rebuilt
        upgraded = read_results(out)
        assert {r.cell_id for r in upgraded} == {c.cell_id for c in spec.cells()}

    def test_cache_never_changes_results(self, tmp_path):
        spec = tiny_spec(num_frames=2)
        cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        reset_default_store()
        SweepEngine(spec, out_path=cold).run()
        SweepEngine(spec, out_path=warm).run()  # fully warm store
        assert stripped(cold) == stripped(warm)


# ----------------------------------------------------------------------
# Results and aggregation
# ----------------------------------------------------------------------
class TestResults:
    def test_json_round_trip(self):
        result = run_cell(
            CellSpec(topology="square", n=10, mode="global", alpha=3.0, beta=1.0, seed=0)
        )
        clone = CellResult.from_json_dict(json.loads(json.dumps(result.to_json_dict())))
        assert clone == result

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            CellResult.from_json_dict({"cell_id": "x", "bogus": 1})

    def test_group_summary_means(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        SweepEngine(tiny_spec(), out_path=out).run()
        rows = group_summary(read_results(out))
        assert {(r["topology"], r["n"]) for r in rows} == {
            ("square", 8), ("square", 12), ("exponential", 8), ("exponential", 12)
        }
        for row in rows:
            assert row["cells"] == 2 and row["mean_slots"] >= 1
            assert row["mean_ratio"] is not None

    def test_group_summary_unknown_key(self):
        with pytest.raises(ConfigurationError, match="group-by"):
            group_summary([], keys=("flavor",))

    def test_summary_table_mentions_groups(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        SweepEngine(tiny_spec(), out_path=out).run()
        table = summary_table(read_results(out))
        assert "square" in table and "exponential" in table and "meas/thm1" in table

    def test_summary_table_counts_failures(self):
        failed = CellResult(
            cell_id="x", topology="square", n=8, mode="global",
            alpha=3.0, beta=1.0, seed=0, status="error", error="boom",
        )
        assert "1 failed cell" in summary_table([failed])
