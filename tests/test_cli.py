"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro._version import __version__
from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestImportCost:
    def test_entry_points_do_not_load_networkx(self):
        """networkx serves three narrow functions; the CLI, the sweep
        engine and cluster workers must not pay its import time."""
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        code = (
            "import sys, repro.cli, repro.runner.engine, repro.cluster.worker; "
            "print('networkx' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.n == 100 and args.mode == "global"

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--mode", "psychic"])


class TestMain:
    def test_schedule_command(self, capsys):
        assert main(["schedule", "--n", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "slots=" in out and "predicted" in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--n", "20", "--frames", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "simulated:" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--n", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "strategy" in out and "tdma" in out

    def test_compare_no_baselines(self, capsys):
        assert main(["compare", "--n", "15", "--no-baselines"]) == 0
        out = capsys.readouterr().out
        assert "tdma" not in out

    def test_topologies(self, capsys):
        for topo in ("disk", "grid", "clusters", "exponential"):
            n = "12" if topo == "exponential" else "16"
            assert main(["schedule", "--n", n, "--topology", topo]) == 0

    def test_oblivious_mode(self, capsys):
        assert main(["schedule", "--n", "20", "--mode", "oblivious"]) == 0
        assert "oblivious" in capsys.readouterr().out

    def test_custom_model_params(self, capsys):
        assert main(["schedule", "--n", "20", "--alpha", "4.0", "--beta", "2.0"]) == 0


class TestRegistryFlags:
    """The registry-derived component flags on schedule/simulate/compare."""

    def test_schedule_with_matching_tree(self, capsys):
        argv = ["schedule", "--n", "16", "--tree", "matching", "--scheduler", "certified"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tree=matching" in out and "slots=" in out

    def test_schedule_with_baseline_scheduler(self, capsys):
        assert main(["schedule", "--n", "10", "--scheduler", "tdma"]) == 0
        out = capsys.readouterr().out
        assert "scheduler=tdma" in out and "slots=9" in out

    def test_simulate_with_tree_flag(self, capsys):
        argv = ["simulate", "--n", "12", "--tree", "matching", "--frames", "2"]
        assert main(argv) == 0
        assert "simulated:" in capsys.readouterr().out

    def test_mean_power_scheme(self, capsys):
        assert main(["schedule", "--n", "12", "--mode", "mean"]) == 0
        assert "mode=mean" in capsys.readouterr().out

    def test_conflict_constants_flags(self, capsys):
        argv = [
            "schedule", "--n", "12", "--mode", "oblivious",
            "--gamma", "2.0", "--delta", "0.3", "--tau", "0.4",
        ]
        assert main(argv) == 0
        assert "slots=" in capsys.readouterr().out

    def test_compare_with_tree_and_constants(self, capsys):
        argv = ["compare", "--n", "12", "--tree", "matching", "--gamma", "1.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tree=matching" in out and "strategy" in out

    def test_unknown_tree_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--tree", "steiner"])

    def test_unknown_scheduler_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--scheduler", "oracle"])


class TestNodeCounts:
    """``--n`` must be honored exactly, for every topology."""

    @pytest.mark.parametrize("topology", ["square", "disk", "grid", "clusters"])
    def test_n_is_exact(self, capsys, topology):
        assert main(["schedule", "--n", "13", "--topology", topology]) == 0
        assert "nodes=13 " in capsys.readouterr().out

    def test_ignored_seed_warns(self, capsys):
        assert main(["schedule", "--n", "9", "--topology", "grid", "--seed", "4"]) == 0
        captured = capsys.readouterr()
        assert "nodes=9 " in captured.out
        assert "--seed is ignored" in captured.err

    def test_exponential_seed_warns(self, capsys):
        assert (
            main(["schedule", "--n", "8", "--topology", "exponential", "--seed", "1"])
            == 0
        )
        assert "--seed is ignored" in capsys.readouterr().err

    def test_no_warning_without_explicit_seed(self, capsys):
        assert main(["schedule", "--n", "9", "--topology", "grid"]) == 0
        assert capsys.readouterr().err == ""


class TestErrorHandling:
    """Library errors exit 2 with a message, never a traceback."""

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["experiment", "BOGUS"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "unknown experiment" in captured.err

    def test_invalid_model_exits_2(self, capsys):
        assert main(["schedule", "--n", "10", "--alpha", "1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "nan")]
    )
    def test_non_finite_model_exits_2(self, capsys, flag, value):
        """A NaN alpha used to print a certified schedule (NaN
        denominators count as feasible), a NaN beta a bogus violation."""
        assert main(["schedule", "--n", "20", flag, value]) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--gamma", "nan"), ("--gamma", "inf"), ("--delta", "nan")]
    )
    def test_non_finite_constant_exits_2(self, capsys, flag, value):
        """A NaN gamma used to print ``greedy colors=1``: every conflict
        test is false, so the conflict graph came out empty."""
        assert main(["schedule", "--n", "20", flag, value]) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err

    def test_invalid_sweep_grid_exits_2(self, capsys):
        assert main(["sweep", "--n", "1"]) == 2
        assert "n must be" in capsys.readouterr().err


class TestSweep:
    def test_sweep_writes_one_row_per_cell(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        argv = [
            "sweep", "--topology", "square,exponential", "--n", "8,12",
            "--mode", "global", "--seeds", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 8
        assert all(row["status"] == "ok" for row in rows)
        stdout = capsys.readouterr().out
        assert "8 cells, 8 executed" in stdout and "meas/thm1" in stdout

    def test_sweep_resumes(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--n", "8", "--seeds", "2", "--out", str(out)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "2 cells, 0 executed, 2 resumed" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 2

    def test_sweep_no_resume_reruns(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--n", "8", "--out", str(out)]
        assert main(argv) == 0
        assert main(argv + ["--no-resume"]) == 0
        assert "1 cells, 1 executed" in capsys.readouterr().out

    def test_sweep_in_memory(self, capsys):
        assert main(["sweep", "--n", "8", "--frames", "3"]) == 0
        assert "1 cells, 1 executed" in capsys.readouterr().out

    def test_sweep_parallel_jobs(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        argv = [
            "sweep", "--n", "8,12", "--mode", "global,oblivious",
            "--jobs", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_bad_int_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--n", "10,banana"])

    def test_sweep_over_tree_axis(self, capsys, tmp_path):
        out = tmp_path / "sweep.jsonl"
        argv = [
            "sweep", "--n", "10", "--tree", "mst,matching",
            "--scheduler", "certified,tdma", "--out", str(out),
        ]
        assert main(argv) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
        assert {(r["tree"], r["scheduler"]) for r in rows} == {
            ("mst", "certified"), ("mst", "tdma"),
            ("matching", "certified"), ("matching", "tdma"),
        }
        stdout = capsys.readouterr().out
        # Multi-valued axes join the group-by table.
        assert "tree" in stdout and "scheduler" in stdout

    def test_sweep_cache_dir_persists_and_reports(self, capsys, tmp_path):
        out, cache = tmp_path / "sweep.jsonl", tmp_path / "cache"
        argv = [
            "sweep", "--n", "10", "--mode", "global,oblivious",
            "--out", str(out), "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "stage cache:" in stdout
        assert (cache / "deploy").is_dir() and (cache / "schedule").is_dir()


class TestBatch:
    @staticmethod
    def write_configs(path, configs, *, jsonl=False):
        if jsonl:
            path.write_text("\n".join(json.dumps(c) for c in configs) + "\n")
        else:
            path.write_text(json.dumps(configs))

    def test_batch_json_array(self, capsys, tmp_path):
        src = tmp_path / "configs.json"
        self.write_configs(
            src,
            [{"topology": "square", "n": 10, "power": m}
             for m in ("global", "uniform")],
        )
        out = tmp_path / "results.jsonl"
        assert main(["batch", str(src), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "[0] ok" in stdout and "[1] ok" in stdout
        assert "batch: 2 jobs, 2 ok, 0 failed" in stdout
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        assert all(r["status"] == "ok" and r["slots"] >= 1 for r in rows)
        assert rows[0]["config"]["power"] == "global"

    def test_batch_jsonl(self, capsys, tmp_path):
        src = tmp_path / "configs.jsonl"
        self.write_configs(
            src, [{"topology": "grid", "n": 9}], jsonl=True
        )
        assert main(["batch", str(src)]) == 0
        assert "1 jobs, 1 ok" in capsys.readouterr().out

    def test_batch_isolates_failing_configs(self, capsys, tmp_path):
        src = tmp_path / "configs.json"
        self.write_configs(
            src,
            [
                {"topology": "square", "n": 10},
                {"topology": "exponential", "n": 1100},  # overflows doubles
            ],
        )
        assert main(["batch", str(src)]) == 0
        stdout = capsys.readouterr().out
        assert "[0] ok" in stdout and "[1] error" in stdout
        assert "2 jobs, 1 ok, 1 failed" in stdout

    def test_batch_all_failed_exits_2(self, capsys, tmp_path):
        src = tmp_path / "configs.json"
        self.write_configs(src, [{"topology": "exponential", "n": 1100}])
        assert main(["batch", str(src)]) == 2

    def test_batch_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_batch_bad_json_exits_2(self, capsys, tmp_path):
        src = tmp_path / "configs.json"
        src.write_text("not json at all")
        assert main(["batch", str(src)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_batch_unknown_config_field_exits_2(self, capsys, tmp_path):
        src = tmp_path / "configs.json"
        self.write_configs(src, [{"flavor": "mint"}])
        assert main(["batch", str(src)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_batch_parallel_jobs(self, capsys, tmp_path):
        src = tmp_path / "configs.json"
        self.write_configs(
            src,
            [{"topology": "square", "n": n} for n in (8, 10, 12)],
        )
        assert main(["batch", str(src), "--jobs", "2"]) == 0
        assert "3 jobs, 3 ok" in capsys.readouterr().out


class TestScenarioCommand:
    def test_churn_prints_epoch_table(self, capsys):
        assert main(["scenario", "churn", "--n", "16", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "scenario=churn epochs=2" in out
        assert "degradation:" in out

    def test_json_record(self, capsys, tmp_path):
        out_file = tmp_path / "scenario.json"
        assert main(
            ["scenario", "churn", "--n", "16", "--epochs", "2",
             "--json", str(out_file)]
        ) == 0
        record = json.loads(out_file.read_text())
        assert record["scenario"] == "churn"
        assert len(record["epoch_results"]) == 2
        assert record["epoch_results"][1]["store"]["deploy"]["hits"] > 0

    def test_params_json_forwarded(self, capsys):
        assert main(
            ["scenario", "churn", "--n", "16", "--epochs", "2",
             "--params", '{"p_leave": 0.0, "p_join": 0.0}']
        ) == 0
        out = capsys.readouterr().out
        # No churn at all: every epoch matches the baseline exactly.
        assert "mean_ratio=1.00" in out

    @pytest.mark.parametrize(
        "name, params, fragment",
        [
            ("churn", "not-json", "not valid JSON"),
            ("churn", '{"bogus": 1}', "available: p_leave, p_join"),
            ("churn", '{"rng": 1}', "available: p_leave, p_join"),
            ("churn", '{"epochs": 2}', "available: p_leave, p_join"),
            ("fading", '{"p_leave": 0.1}', "available: sigma, target"),
        ],
    )
    def test_bad_params_exit_2(self, capsys, name, params, fragment):
        assert main(["scenario", name, "--n", "16", "--params", params]) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, params",
        [
            ("arrivals", '{"load": NaN}'),
            ("arrivals", '{"load": Infinity}'),
            ("arrivals", '{"rate": NaN}'),
            ("arrivals", '{"rate": Infinity}'),
            ("mobility", '{"speed": Infinity}'),
            ("fading", '{"sigma": NaN}'),
        ],
    )
    def test_non_finite_params_exit_2(self, capsys, name, params):
        """Each used to end in a bare ValueError traceback or, for the
        infinite load and speed, to run."""
        assert main(
            ["scenario", name, "--n", "16", "--epochs", "2", "--params", params]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert next(iter(json.loads(params))) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, params",
        [
            ("churn", '{"p_leave": "x"}'),
            ("churn", '{"p_join": "0.1"}'),
            ("arrivals", '{"rate": null}'),
            ("arrivals", '{"rate": "5"}'),
            ("mobility", '{"speed": true}'),
        ],
    )
    def test_non_numeric_params_exit_2(self, capsys, name, params):
        """A string or null used to end in a TypeError traceback; a
        numeric string or a bool ran as a number."""
        assert main(
            ["scenario", name, "--n", "16", "--epochs", "2", "--params", params]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{next(iter(json.loads(params)))} must be a real number" in err
        assert "Traceback" not in err

    def test_negative_scenario_seed_exits_2(self, capsys):
        assert main(
            ["scenario", "churn", "--n", "16", "--epochs", "2",
             "--scenario-seed", "-1"]
        ) == 2
        assert "scenario_seed" in capsys.readouterr().err

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "earthquake"])

    def test_scenario_cache_dir(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["scenario", "fading", "--n", "16", "--epochs", "2",
             "--cache-dir", str(cache)]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(cache)]) == 0
        assert "schedule" in capsys.readouterr().out

    def test_sweep_scenario_axis(self, capsys, tmp_path):
        out = tmp_path / "dyn.jsonl"
        assert main(
            ["sweep", "--n", "14", "--scenario", "static,churn",
             "--epochs", "2", "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "scenario" in stdout  # the group-by gains the scenario key
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert {r["scenario"] for r in rows} == {"static", "churn"}
        assert all(len(r["epoch_metrics"]) == 2 for r in rows)


class TestCache:
    def test_stats_empty_dir(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path / "cache")]) == 0
        assert "empty stage cache" in capsys.readouterr().out

    def test_stats_after_sweep(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["sweep", "--n", "10", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(cache)]) == 0
        stdout = capsys.readouterr().out
        assert "deploy" in stdout and "schedule" in stdout and "total" in stdout

    def test_clear_removes_entries(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["sweep", "--n", "10", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--dir", str(cache)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", str(cache)]) == 0
        assert "empty stage cache" in capsys.readouterr().out

    def test_unknown_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "prune", "--dir", "x"])
