"""Command-line interface: ``repro-aggregate`` / ``python -m repro``.

Subcommands
-----------
``schedule``   — build a certified schedule for a random deployment and
print the build report.
``simulate``   — additionally run the frame-level convergecast simulator.
``compare``    — tabulate all power regimes on one instance.
``experiment`` — regenerate a paper experiment from the registry.
``sweep``      — run a declarative scenario grid through the sweep
engine (parallel workers, JSONL persistence, resume, optional on-disk
stage cache).
``scenario``   — run a dynamic scenario timeline (churn, mobility,
fading, online arrivals) over one instance and print the per-epoch
degradation table.
``batch``      — run a file of pipeline configs (JSON array or JSONL)
through :meth:`~repro.jobs.JobService.run`, one row per config in file
order; a failing config becomes a ``status=error`` row.
``cache``      — inspect or clear an on-disk stage cache directory.
``lint``       — run reprolint, the AST-based invariant linter
(:mod:`repro.analysis`), over source paths; exit 2 on error findings.
``worker``     — join a distributed sweep as a cluster worker: lease
cell batches from an orchestrator (``repro sweep --cluster``), run them
through a local job service, stream results back.
``serve``      — run the HTTP/JSONL job service: submit sweeps as
long-lived jobs, poll status, stream result rows, cancel.

Every ``choices=`` list is derived from the component registries
(:mod:`repro.api`), so registering a topology, tree builder, power
scheme or scheduler makes it reachable from the command line without
touching this module.

Library failures (:class:`~repro.errors.ReproError` subclasses) are
printed to stderr and exit with status 2 — no tracebacks for
configuration mistakes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.api.components import power_schemes, schedulers, topologies, trees
from repro.api.config import PipelineConfig
from repro.api.pipeline import Pipeline
from repro.backend import BACKENDS
from repro.core.capacity import compare_power_modes
from repro.errors import ConfigurationError, ReproError
from repro.geometry.generators import topology_uses_seed
from repro.scenarios.transforms import scenarios as scenario_registry
from repro.sinr.model import SINRModel

__all__ = ["main", "build_parser"]


def _effective_seed(args: argparse.Namespace) -> int:
    """The seed to use, warning when a non-default one would be ignored.

    ``--seed`` defaults to ``0``; passing any other value for a
    deterministic topology (``grid``, ``exponential``) is called out
    instead of silently ignored.
    """
    if args.seed != 0 and not topology_uses_seed(args.topology):
        print(
            f"warning: --seed is ignored for the deterministic "
            f"topology {args.topology!r}",
            file=sys.stderr,
        )
    return args.seed


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _float_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        )


def _str_list(text: str) -> List[str]:
    return [part for part in text.split(",") if part]


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=100, help="number of nodes")
    parser.add_argument(
        "--topology", choices=list(topologies.names()), default="square"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed (default 0; a non-default seed is ignored — with a "
        "warning — for the deterministic grid/exponential topologies)",
    )
    parser.add_argument("--alpha", type=float, default=3.0, help="path-loss exponent")
    parser.add_argument("--beta", type=float, default=1.0, help="SINR threshold")
    parser.add_argument(
        "--tree",
        choices=list(trees.names()),
        default="mst",
        help="aggregation-tree builder (default: the paper's MST)",
    )


def _add_constant_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gamma", type=float, default=None, help="conflict-graph threshold constant"
    )
    parser.add_argument(
        "--delta", type=float, default=None, help="oblivious conflict-graph exponent"
    )
    parser.add_argument(
        "--tau", type=float, default=None, help="oblivious power exponent P_tau"
    )


def _add_scheduler_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler",
        choices=list(schedulers.names()),
        default="certified",
        help="link scheduler (default: the paper's certified pipeline)",
    )


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="dense-numpy",
        help="numeric backend for the SINR kernel core (both backends are "
        "bit-identical; blocked-sparse never materialises dense n x n "
        "matrices)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aggregate",
        description="Near-constant-rate wireless aggregation scheduling (ICDCS 2018 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schedule = sub.add_parser("schedule", help="build a certified schedule")
    _add_instance_args(p_schedule)
    p_schedule.add_argument(
        "--mode",
        choices=list(power_schemes.names()),
        default="global",
        help="power-control mode",
    )
    _add_scheduler_arg(p_schedule)
    _add_constant_args(p_schedule)

    p_simulate = sub.add_parser("simulate", help="build and simulate convergecast")
    _add_instance_args(p_simulate)
    p_simulate.add_argument(
        "--mode", choices=list(power_schemes.names()), default="global"
    )
    _add_scheduler_arg(p_simulate)
    _add_constant_args(p_simulate)
    p_simulate.add_argument("--frames", type=int, default=20, help="frames to aggregate")

    p_compare = sub.add_parser("compare", help="compare power regimes")
    _add_instance_args(p_compare)
    _add_constant_args(p_compare)
    p_compare.add_argument(
        "--no-baselines", action="store_true", help="skip baseline schedulers"
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper experiment")
    p_exp.add_argument(
        "id",
        nargs="?",
        default=None,
        help="experiment id (FIG1, THM1, THM2, FIG2, FIG3, FIG4, BASE, OPT, "
        "TREES); omit to list",
    )
    p_exp.add_argument("--alpha", type=float, default=3.0)
    p_exp.add_argument("--beta", type=float, default=1.0)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a scenario grid through the sweep engine",
        description="Run every (topology x n x mode x tree x scheduler x alpha x "
        "beta x seed) cell of the grid, in parallel, writing one JSONL record "
        "per cell.",
    )
    p_sweep.add_argument(
        "--topology",
        type=_str_list,
        default=["square"],
        help=f"comma-separated topologies ({','.join(topologies.names())})",
    )
    p_sweep.add_argument(
        "--n", type=_int_list, default=[100], help="comma-separated node counts"
    )
    p_sweep.add_argument(
        "--mode",
        type=_str_list,
        default=["global"],
        help="comma-separated power modes "
        f"({','.join(power_schemes.names())})",
    )
    p_sweep.add_argument(
        "--tree",
        type=_str_list,
        default=["mst"],
        help=f"comma-separated tree builders ({','.join(trees.names())})",
    )
    p_sweep.add_argument(
        "--scheduler",
        type=_str_list,
        default=["certified"],
        help=f"comma-separated schedulers ({','.join(schedulers.names())})",
    )
    p_sweep.add_argument(
        "--alpha", type=_float_list, default=[3.0], help="comma-separated alphas"
    )
    p_sweep.add_argument(
        "--beta", type=_float_list, default=[1.0], help="comma-separated betas"
    )
    p_sweep.add_argument(
        "--scenario",
        type=_str_list,
        default=["static"],
        help="comma-separated dynamic scenarios "
        f"({','.join(scenario_registry.names())})",
    )
    p_sweep.add_argument(
        "--epochs",
        type=int,
        default=1,
        help="scenario timeline length (static + 1 epoch = plain pipeline)",
    )
    p_sweep.add_argument(
        "--seeds", type=int, default=1, help="random repetitions per grid point"
    )
    p_sweep.add_argument(
        "--base-seed", type=int, default=0, help="offset of the seed axis"
    )
    p_sweep.add_argument(
        "--frames", type=int, default=0, help="frames to simulate per cell (0 = none)"
    )
    _add_backend_arg(p_sweep)
    p_sweep.add_argument("--out", default=None, help="output JSONL path")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.add_argument(
        "--no-resume",
        action="store_true",
        help="re-run every cell even if --out already records it",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk stage cache: deployments/trees/schedules persist "
        "here and are reused across runs",
    )
    p_sweep.add_argument(
        "--cluster",
        default=None,
        metavar="HOST:PORT",
        help="run on the distributed backend: bind the sweep orchestrator "
        "at this address and lease cells to 'repro worker' processes "
        "(--jobs then applies inside each worker, not here)",
    )
    p_sweep.add_argument(
        "--cluster-batch",
        type=int,
        default=4,
        help="cells per worker lease on the cluster backend",
    )
    p_sweep.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds before an un-heartbeated cluster lease is "
        "reassigned to another worker",
    )

    p_scenario = sub.add_parser(
        "scenario",
        help="run a dynamic scenario timeline over one instance",
        description="Run EPOCHS epochs of a named scenario transform (node "
        "churn, mobility drift, channel fading, online arrivals) over one "
        "pipeline instance, reporting per-epoch degradation against the "
        "static baseline.",
    )
    p_scenario.add_argument(
        "name",
        choices=list(scenario_registry.names()),
        help="scenario transform to run",
    )
    _add_instance_args(p_scenario)
    p_scenario.add_argument(
        "--mode",
        choices=list(power_schemes.names()),
        default="global",
        help="power-control mode",
    )
    _add_scheduler_arg(p_scenario)
    _add_constant_args(p_scenario)
    _add_backend_arg(p_scenario)
    p_scenario.add_argument(
        "--epochs", type=int, default=5, help="timeline length"
    )
    p_scenario.add_argument(
        "--frames", type=int, default=0,
        help="frames to simulate per epoch (the arrivals scenario draws "
        "its own online load instead)",
    )
    p_scenario.add_argument(
        "--scenario-seed", type=int, default=None,
        help="seed of the scenario's randomness (default: --seed)",
    )
    p_scenario.add_argument(
        "--params", default=None,
        help='JSON dict of transform parameters, e.g. \'{"p_leave": 0.2}\'',
    )
    p_scenario.add_argument(
        "--json", dest="json_out", default=None,
        help="write the full scenario record (epochs + degradation) as JSON",
    )
    p_scenario.add_argument(
        "--cache-dir", default=None, help="on-disk stage cache directory"
    )

    p_batch = sub.add_parser(
        "batch",
        help="run a file of pipeline configs through the job service",
        description="Each entry of CONFIGS (a JSON array, or JSONL with one "
        "object per line) is a PipelineConfig dict; jobs run through the "
        "JobService worker pool with stage-store reuse and error isolation.",
    )
    p_batch.add_argument("configs", help="JSON/JSONL file of PipelineConfig dicts")
    p_batch.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_batch.add_argument(
        "--cache-dir", default=None, help="on-disk stage cache directory"
    )
    p_batch.add_argument(
        "--out", default=None, help="write one JSONL result row per config"
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear an on-disk stage cache",
        description="Report per-stage entry counts and sizes of a stage-cache "
        "directory, or delete its entries.",
    )
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument(
        "--dir", required=True, help="stage cache directory (as in --cache-dir)"
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the reprolint invariant linter",
        description="Check source files against the repo's contract rules "
        "(seed determinism, store-stage purity, the backend bit-identity "
        "boundary, the socket boundary, the error hierarchy, documented "
        "registrations).  Exits 2 when any error-severity finding survives "
        "suppression comments (# reprolint: disable=RULE-ID).",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro if it "
        "exists, else the current directory)",
    )
    p_lint.add_argument(
        "--json",
        dest="json_output",
        action="store_true",
        help="emit the machine-readable finding/rule report on stdout",
    )
    p_lint.add_argument(
        "--select",
        type=_str_list,
        default=None,
        help="comma-separated rule ids to run (default: every registered rule)",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )

    p_worker = sub.add_parser(
        "worker",
        help="join a distributed sweep as a cluster worker",
        description="Connect to a sweep orchestrator (started by 'repro "
        "sweep --cluster HOST:PORT'), lease cell batches, run them through "
        "a local job service, and stream the results back.  Exits when the "
        "orchestrator reports the sweep complete.",
    )
    p_worker.add_argument(
        "address", metavar="HOST:PORT", help="the orchestrator's address"
    )
    p_worker.add_argument(
        "--id",
        dest="worker_id",
        default=None,
        help="worker identity used in leases/heartbeats "
        "(default: <hostname>-<pid>)",
    )
    p_worker.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk stage cache; point workers at a shared mount to "
        "share the disk tier across hosts",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSONL sweep job service",
        description="Serve sweeps as long-lived jobs over a minimal HTTP "
        "API: POST /jobs submits a SweepSpec dict, GET /jobs/<id> polls "
        "status, GET /jobs/<id>/stream follows result rows as JSONL, "
        "POST /jobs/<id>/cancel stops a job.  Each job runs a normal "
        "sweep engine in its own process, writing resumable JSONL under "
        "the spool directory.",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8123, help="bind port")
    p_serve.add_argument(
        "--spool-dir",
        default=".repro-serve",
        help="directory holding one results.jsonl per submitted job",
    )
    return parser


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.runner import SweepEngine, SweepSpec

    spec = SweepSpec(
        topologies=tuple(args.topology),
        ns=tuple(args.n),
        modes=tuple(args.mode),
        trees=tuple(args.tree),
        schedulers=tuple(args.scheduler),
        alphas=tuple(args.alpha),
        betas=tuple(args.beta),
        seeds=args.seeds,
        base_seed=args.base_seed,
        num_frames=args.frames,
        scenarios=tuple(args.scenario),
        epochs=args.epochs,
        backend=args.backend,
    )
    engine = SweepEngine(
        spec,
        jobs=args.jobs,
        out_path=args.out,
        resume=not args.no_resume,
        cache_dir=args.cache_dir,
        cluster=args.cluster,
        cluster_batch=args.cluster_batch,
        lease_ttl_s=args.lease_ttl,
    )
    if args.cluster:
        print(
            f"cluster orchestrator listening on {args.cluster} "
            f"(batch={args.cluster_batch}, lease-ttl={args.lease_ttl:g}s); "
            f"start workers with: repro worker {args.cluster}"
        )
    report = engine.run()
    keys = ("topology", "n", "mode")
    if len(spec.trees) > 1:
        keys += ("tree",)
    if len(spec.schedulers) > 1:
        keys += ("scheduler",)
    if len(spec.scenarios) > 1:
        keys += ("scenario",)
    print(report.summary())
    print(report.table(keys))
    if report.store_stats:
        print(_store_stats_line(report.store_stats))
    if report.cluster_stats:
        cs = report.cluster_stats
        print(
            f"cluster: {len(cs['workers'])} worker"
            f"{'s' if len(cs['workers']) != 1 else ''}, "
            f"{cs['leases_granted']} leases, "
            f"{cs['reassignments']} reassigned, "
            f"{cs['duplicate_results']} duplicate results"
        )
    if args.out:
        print(f"wrote {len(report.results)} records to {args.out}")
    return 0


def _store_stats_line(stats: dict) -> str:
    """One-line ``stage: builds/hits`` cache summary."""
    parts = []
    for stage in ("deploy", "tree", "links", "schedule"):
        counters = stats.get(stage)
        if counters is None:
            continue
        part = f"{stage} {counters.get('builds', 0)} built/{counters.get('hits', 0)} hit"
        disk_hits = counters.get("disk_hits", 0)
        if disk_hits:
            part += f"/{disk_hits} disk"
        parts.append(part)
    return "stage cache: " + ", ".join(parts)


def _run_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios.runner import ScenarioRunner
    from repro.store.store import StageStore, get_default_store

    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--params is not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise ConfigurationError("--params must be a JSON object")
    config = PipelineConfig(
        topology=args.topology,
        n=args.n,
        seed=_effective_seed(args),
        tree=args.tree,
        power=args.mode,
        scheduler=args.scheduler,
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        delta=args.delta,
        tau=args.tau,
        num_frames=args.frames,
        backend=args.backend,
    )
    store = (
        StageStore(disk=args.cache_dir) if args.cache_dir else get_default_store()
    )
    runner = ScenarioRunner(
        config,
        args.name,
        epochs=args.epochs,
        params=params,
        scenario_seed=args.scenario_seed,
        store=store,
    )
    result = runner.run()
    print(result.summary())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(result.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote scenario record to {args.json_out}")
    return 0


def _load_batch_configs(path: Path) -> List[PipelineConfig]:
    """Parse a batch file: a JSON array, or JSONL (one object per line)."""
    if not path.exists():
        raise ConfigurationError(f"batch file not found: {path}")
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise ConfigurationError(f"batch file is empty: {path}")
    try:
        if text.startswith("["):
            entries = json.loads(text)
        else:
            entries = [
                json.loads(line) for line in text.splitlines() if line.strip()
            ]
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON/JSONL: {exc}") from None
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) for e in entries
    ):
        raise ConfigurationError(f"{path}: expected a list of config objects")
    return [PipelineConfig.from_dict(entry) for entry in entries]


def _run_batch(args: argparse.Namespace) -> int:
    from repro.jobs import JobService

    configs = _load_batch_configs(Path(args.configs))
    rows = []
    failed = 0
    with JobService(workers=args.jobs, cache_dir=args.cache_dir) as service:
        for index, (config, outcome) in enumerate(zip(configs, service.run(configs))):
            row = {"index": index, "config": config.to_dict()}
            if outcome.error is not None:
                failed += 1
                error = f"{type(outcome.error).__name__}: {outcome.error}"
                row.update(status="error", error=error)
                print(f"[{index}] error: {error}")
            else:
                artifact = outcome.value
                row.update(
                    status="ok",
                    slots=artifact.num_slots,
                    rate=artifact.rate,
                    predicted_slots=artifact.predicted_slots,
                )
                print(
                    f"[{index}] ok {config.topology}/n{config.n}/{config.power}"
                    f"/{config.tree}/{config.scheduler}"
                    f" slots={artifact.num_slots} rate=1/{artifact.num_slots}"
                )
            rows.append(row)
        stats = service.store_stats()
    print(f"batch: {len(configs)} jobs, {len(configs) - failed} ok, {failed} failed")
    if stats:
        print(_store_stats_line(stats))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} records to {args.out}")
    return 2 if failed == len(configs) else 0


def _run_cache(args: argparse.Namespace) -> int:
    from repro.store import DiskTier

    tier = DiskTier(args.dir)
    if args.action == "clear":
        removed = tier.clear()
        print(f"cleared {removed} cached artifact{'s' if removed != 1 else ''} "
              f"from {args.dir}")
        return 0
    stats = tier.stats()
    if not stats:
        print(f"{args.dir}: empty stage cache")
        return 0
    total_entries = sum(s["entries"] for s in stats.values())
    total_bytes = sum(s["bytes"] for s in stats.values())
    print(f"{'stage':>10}{'entries':>9}{'bytes':>12}")
    for stage, counters in stats.items():
        print(f"{stage:>10}{counters['entries']:>9}{counters['bytes']:>12}")
    print(f"{'total':>10}{total_entries:>9}{total_bytes:>12}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths, lint_rules

    if args.list_rules:
        for rule_id in lint_rules.names():
            rule = lint_rules.get(rule_id)
            print(f"{rule.rule_id:>12}  [{rule.severity}] {rule.title}")
            if rule.contract:
                print(f"{'':>12}  guards: {rule.contract}")
        return 0
    paths = args.paths
    if not paths:
        default = Path("src/repro")
        paths = [default] if default.is_dir() else [Path(".")]
    report = lint_paths(paths, select=args.select)
    if args.json_output:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.text())
    return report.exit_code()


def _run_worker(args: argparse.Namespace) -> int:
    from repro.cluster import Worker, parse_address

    host, port = parse_address(args.address)
    worker = Worker(
        host,
        port,
        worker_id=args.worker_id,
        cache_dir=args.cache_dir,
    )
    print(f"worker {worker.worker_id} joining sweep at {host}:{port}")
    completed = worker.run()
    print(f"worker {worker.worker_id} done: {completed} cells completed")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.cluster import serve_forever

    serve_forever(host=args.host, port=args.port, spool_dir=args.spool_dir)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "scenario":
        return _run_scenario(args)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "cache":
        return _run_cache(args)

    model = SINRModel(alpha=args.alpha, beta=args.beta)

    if args.command == "experiment":
        from repro.core.experiments import list_experiments, run_experiment

        if args.id is None:
            print("available experiments:", ", ".join(list_experiments()))
        else:
            print(run_experiment(args.id, model))
        return 0

    seed = _effective_seed(args)

    if args.command in ("schedule", "simulate"):
        config = PipelineConfig(
            topology=args.topology,
            n=args.n,
            seed=seed,
            tree=args.tree,
            power=args.mode,
            scheduler=args.scheduler,
            alpha=args.alpha,
            beta=args.beta,
            gamma=args.gamma,
            delta=args.delta,
            tau=args.tau,
            num_frames=args.frames if args.command == "simulate" else 0,
        )
        artifact = Pipeline(config, model=model).run()
        print(artifact.summary())
    elif args.command == "compare":
        from repro.geometry.generators import make_deployment

        points = make_deployment(args.topology, args.n, rng=seed)
        comparison = compare_power_modes(
            points,
            model=model,
            tree=args.tree,
            gamma=args.gamma,
            delta=args.delta,
            tau=args.tau,
            include_baselines=not args.no_baselines,
        )
        print(
            f"n={comparison.n} tree={comparison.tree} "
            f"diversity={comparison.diversity:.4g}"
        )
        print(comparison.table())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
