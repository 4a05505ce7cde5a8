"""perfbench -- the repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-frames --seed 0 --seconds 25 --trace 0

Workloads: ``sweep-frames``, ``schedule-build``, ``scenario-dynamic``,
``cluster-sweep`` (see ``workloads.py``).  The program is imported from
the checkout's ``src/``; without it the benchmark exits with status 2.

A run sets the workload up once in this process and, with ``--trace 0``,
also times the set-up in five fresh interpreters (``setup_s``).  It then
runs cold rounds of the workload until ``--seconds`` are used up; for
workloads that allocate hundreds of MiB, round 0 warms the allocator up
and is checked but not timed.  Each round's
schedules are re-verified slot by slot, its simulations and epochs
checked, and its output digest and exact counters compared with the
other rounds'; for seed 0 the digest must also match ``digests.json``.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
(untraced rounds), plus per-workload names for them (``cells_per_s``,
``epochs_per_s``, ...), the per-operation p50/p75 latency,
``failed_ratio`` and ``frame_latency_slots`` in the human-readable lines
above the result.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced ones, the time outside every named span, and the tracing
overhead of each timing metric.

Timings are host-normalised seconds: the speed of a shared 2-vCPU
machine drifts by tens of percent within seconds, so every interval is
rescaled by a reference kernel timed next to it (``hooks.py``); the raw
seconds are kept in the run record under ``.perfbench/runs/``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5

#: Timing metrics whose tracing overhead is reported, and whether a
#: larger value is better.
TIMINGS = (("ops_per_s", True), ("links_per_s", True), ("op_p50_s", False), ("op_p75_s", False))


def _self(spans: Dict[str, Dict[str, float]], name: str, key: str = "self_s") -> float:
    return spans.get(name, {}).get(key, 0.0)


def layer_metrics(r: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced round (seconds host-normalised)."""
    s, h = r.spans, r.host_factor
    c = {**r.observed, **r.exact, **r.counts}

    def self_s(name: str) -> float:
        return _self(s, name) * h

    def total_s(name: str) -> float:
        return _self(s, name, "total_s") * h

    stages = ("deploy", "tree", "links", "schedule")
    hits = sum(c.get(f"store.{st}.hits", 0) for st in stages)
    builds = sum(c.get(f"store.{st}.builds", 0) for st in stages)
    spectral = _self(s, "sinr.spectral", "calls")
    simulate = self_s("aggregation.simulate")
    cl = r.cluster or {}
    return {
        "aggregation.simulate_s": simulate,
        "aggregation.slots_simulated": c.get("sim.slots", 0),
        "aggregation.slots_per_s": c.get("sim.slots", 0) / simulate if simulate else 0.0,
        "aggregation.max_backlog": c.get("sim.max_backlog", 0),
        "conflict.graph_s": self_s("conflict.graph"),
        "conflict.edges": c.get("conflict.edges", 0),
        "coloring.greedy_s": self_s("coloring.greedy"),
        "coloring.colors": c.get("coloring.colors", 0),
        "scheduling.build_s": self_s("scheduling.build"),
        "scheduling.split_oracle_s": self_s("scheduling.split_oracle"),
        "scheduling.split_fixed_s": self_s("scheduling.split_fixed"),
        "scheduling.split_classes": c.get("split_classes", 0),
        "scheduling.validate_s": self_s("scheduling.validate"),
        "scheduling.incremental_s": self_s("scheduling.incremental"),
        "scheduling.links_reexamined": c.get("repair.links_reexamined", 0),
        "scheduling.feasibility_evals": c.get("repair.feasibility_evals", 0),
        "sinr.spectral_calls": spectral,
        "sinr.spectral_s": self_s("sinr.spectral"),
        "sinr.spectral_accept_ratio": (
            c.get("sinr.spectral_accepted", 0) / spectral if spectral else 0.0
        ),
        "sinr.power_assign_s": self_s("sinr.power_assign"),
        "sinr.feasibility_check_s": self_s("sinr.feasibility_check"),
        "sinr.block_evals": c.get("kernel.block_evals", 0),
        "sinr.entries_served": c.get("kernel.entries_served", 0),
        "sinr.dense_builds": c.get("kernel.dense_builds", 0),
        "sinr.dense_hits": c.get("kernel.dense_hits", 0),
        "spanning.tree_s": self_s("spanning.tree"),
        "geometry.deploy_s": self_s("geometry.deploy"),
        "links.build_s": self_s("links.build"),
        **{
            f"store.{st}.{name}": c.get(f"store.{st}.{name}", 0)
            for st in ("deploy", "tree", "schedule")
            for name in ("builds", "hits")
        },
        "store.hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "store.self_s": self_s("store.get_or_build") + self_s("store.schedule_stage"),
        "api.self_s": self_s("api.pipeline"),
        # Inline engine only: cluster cells run in the workers.
        "runner.overhead_s": (
            self_s("runner.sweep") + total_s("runner.persist") if "runner.cell" in s else 0.0
        ),
        "runner.persist_s": total_s("runner.persist"),
        "scenarios.repair_tree_s": self_s("scenarios.repair_tree"),
        "scenarios.repair_cost": c.get("scenarios.repair_cost", 0),
        "scenarios.self_s": self_s("scenarios.run"),
        "cluster.boot_s": cl.get("boot_s", 0.0),
        "cluster.leases": c.get("cluster.leases", 0),
        "cluster.reassignments": c.get("cluster.reassignments", 0),
        "cluster.duplicates": c.get("cluster.duplicates", 0),
        "cluster.execute_s": total_s("cluster.execute"),
        "cluster.encode_s": total_s("cluster.encode"),
        "cluster.request_s": total_s("cluster.request"),
        "cluster.overhead_ratio": (
            1.0 - cl["execute_s"] / (cl["workers"] * cl["window_s"]) if cl else 0.0
        ),
        "unattributed_s": max(r.wall_s - r.covered_s, 0.0) * h,
        # Share of the round, probes excluded, inside named layer spans.
        "trace.coverage": (r.covered_s - r.probe_s) / (r.wall_s - r.probe_s),
    }


def quantile75(values: List[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def round_timings(r: Any) -> Dict[str, float]:
    times = [op.norm_s for op in r.ops]
    return {
        "ops_per_s": r.ops_per_s,
        "links_per_s": r.links_per_s,
        "op_p50_s": statistics.median(times),
        "op_p75_s": quantile75(times),
    }


def medians(rounds: List[Any]) -> Dict[str, float]:
    per = [round_timings(r) for r in rounds]
    return {k: statistics.median(p[k] for p in per) for k in per[0]}


def setup_samples(name: str) -> List[Dict[str, float]]:
    """Time the workload's set-up in fresh interpreters: from spawning
    the interpreter to its ``ready`` line (imports, registry load, spec
    validation and the warm-up run).  Each sample is normalised by the
    reference interpreter started just before and just after it."""
    from hooks import REF_SPAWN_S, reference_spawn, spawn_until_ready

    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"]
    refs = [reference_spawn(str(ROOT))]
    samples = []
    for _ in range(SETUP_SAMPLES):
        raw = spawn_until_ready(argv, str(ROOT))
        refs.append(reference_spawn(str(ROOT)))
        ref = (refs[-2] + refs[-1]) / 2
        samples.append({"raw_s": raw, "ref_s": ref, "norm_s": raw * REF_SPAWN_S / ref})
    return samples


def host_record(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "instance_seed_base": 1000 * args.seed,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: the repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from hooks import Recorder
    from workloads import WORKLOADS, WORK

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    rec = Recorder()
    workload = WORKLOADS[args.workload](rec)
    workload.setup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup = setup_samples(args.workload) if args.trace == 0 else []
    deadline = time.perf_counter() + args.seconds
    rounds: List[Any] = []
    elapsed: List[float] = []
    error = None
    # Workloads whose first round pays for fresh memory start with a
    # warm-up round: its outputs are checked, its timings dropped.  With
    # --trace 1 untraced and traced rounds alternate after it.
    first = int(workload.warmup_round)
    while True:
        traced = args.trace == 1 and len(rounds) > first and (len(rounds) - first) % 2 == 1
        if len(rounds) > first:
            missing_traced = args.trace == 1 and not any(r.traced for r in rounds)
            estimate = max(elapsed) * (1.3 if traced else 1.0)
            if not missing_traced and time.perf_counter() + estimate > deadline:
                break
        started = time.perf_counter()
        try:
            rounds.append(workload.run_round(args.seed, traced))
        except Exception as exc:  # a broken round is reported, not hidden
            error = f"{type(exc).__name__}: {exc}"
            break
        elapsed.append(time.perf_counter() - started)
        print(f"round {len(rounds)}: {'traced' if traced else 'untraced'} "
              f"wall={rounds[-1].wall_s:.2f}s ops={len(rounds[-1].ops)} "
              f"failed={len(rounds[-1].failures)} digest={rounds[-1].digest[:12]}",
              flush=True)
    untraced = [r for r in rounds[first:] if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    if not untraced or (args.trace == 1 and not traced_rounds):
        print(f"perfbench: no complete measured round ({error})", file=sys.stderr)
        return 1

    # ---- output checks ------------------------------------------------
    faults: List[str] = []
    if error:
        faults.append(f"round aborted: {error}")
    digests = {r.digest for r in rounds}
    if len(digests) > 1:
        faults.append(f"output digest differs between rounds: {sorted(digests)}")
    recorded = json.loads((HERE / "digests.json").read_text())
    if args.seed == DEFAULT_SEED and recorded.get(args.workload) != rounds[0].digest:
        faults.append(f"digest {rounds[0].digest} != recorded {recorded.get(args.workload)}")
    for r in rounds[1:]:
        diff = {k for k in set(r.exact) | set(rounds[0].exact)
                if r.exact.get(k) != rounds[0].exact.get(k)}
        if diff:
            faults.append(f"exact counters differ between rounds (benchmark fault): {sorted(diff)}")
            break
    # An aborted round counts as one attempted, failed operation.
    attempted = sum(r.attempted for r in rounds) + bool(error)
    failed = sum(len(r.failures) for r in rounds) + bool(error)
    for r in rounds:
        for key, reasons in sorted(r.failures.items())[:5]:
            print(f"FAILED {key}: {'; '.join(reasons)}")
    for fault in faults:
        print(f"FAULT {fault}")
    correct = failed == 0 and not faults

    # ---- metrics --------------------------------------------------------
    timings = medians(untraced)
    extra = [r.setup_extra_s for r in untraced if r.setup_extra_s is not None]
    e2e = {
        "setup_s": (
            statistics.median(s["norm_s"] for s in setup)
            + (statistics.median(extra) if extra else 0.0)
        ) if setup else 0.0,
        # ru_maxrss after the first round: later rounds only add allocator
        # noise, and how many rounds fit depends on host speed.
        "peak_rss_mb": rounds[0].rss_mb,
        **timings,
        "slots_mean": statistics.median(r.slots_mean for r in untraced),
    }
    latency = [r.frame_latency_slots for r in untraced if r.frame_latency_slots is not None]
    op = workload.op_name
    print(f"perfbench {args.workload}: seed={args.seed} rounds={len(rounds)} "
          f"({first} warm-up, {len(untraced)} untraced, {len(traced_rounds)} traced) "
          f"{op}s/round={len(rounds[0].ops)} nproc={os.cpu_count()}")
    aliases = {
        "ops_per_s": f"{op}s_per_s", "op_p50_s": f"{op}_p50_s", "op_p75_s": f"{op}_p75_s",
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        if name in ("setup_s", "peak_rss_mb") and args.trace == 1:
            continue
        alias = aliases.get(name, name)
        unit = e2e_units.get(name, "s")
        note = f"json: {name}" if name in e2e_units else "report only"
        print(f"  {alias:<22} {value:>12.4f} {unit}"
              + (f"   ({note})" if alias != name or name not in e2e_units else ""))
    print(f"  {'failed_ratio':<22} {failed / attempted:>12.4f} fraction   ({failed}/{attempted} {op}s)")
    if latency:
        print(f"  {'frame_latency_slots':<22} {statistics.median(latency):>12.4f} slots")
    print(f"  {op} samples per untraced round: {len(untraced[0].ops) if untraced else 0}; "
          f"setup samples: {len(setup)}")

    if args.trace == 0:
        units = e2e_units
        metrics = {name: e2e[name] for name in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per = [layer_metrics(r) for r in traced_rounds]
        traced_t = medians(traced_rounds)
        for name, higher in TIMINGS:
            ratio = timings[name] / traced_t[name] if higher else traced_t[name] / timings[name]
            for p in per:
                p[f"trace.overhead.{name}"] = ratio - 1.0
        metrics = {k: statistics.median(p[k] for p in per) for k in units}
        for name in sorted(metrics):
            print(f"  {name:<32} {metrics[name]:>14.6g} {units[name]}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_record(args),
        "setup_samples": setup,
        "metrics": metrics,
        "frame_latency_slots": latency,
        "faults": faults,
        "rounds": [
            {
                "traced": r.traced, "wall_s": r.wall_s, "norm_s": r.norm_s,
                "host_factor": r.host_factor, "digest": r.digest,
                "timings": round_timings(r), "slots_mean": r.slots_mean,
                "exact": r.exact, "observed": r.observed, "cluster": r.cluster,
                "ops": [[o.key, o.end - o.start, o.norm_s] for o in r.ops],
                "failures": r.failures,
            }
            for r in rounds
        ],
    }
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print("counters: " + json.dumps(rounds[0].exact, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
