"""STORE — the content-addressed stage store at benchmark scale.

The Execution-API-v2 claim: on a ``topology x mode x alpha`` grid with
fixed ``n``/``seed``, the stage store makes cell cost collapse to the
stages that actually differ.  This bench runs the same 3-axis sweep
cold (fresh store) and warm (store populated), asserts

* each distinct deployment and tree is built exactly once on the cold
  run (stage builds ``<= cells / 2``),
* the warm run rebuilds *zero* deployments/trees and evaluates zero
  kernel blocks (``block_evals`` delta 0),
* warm results are byte-identical to cold results modulo timing fields
  (the cache can never change answers),

and writes the machine-readable trajectory record
``BENCH_stage_store.json`` (cells/s cold vs warm, per-stage build
counts and hit rates, cold kernel ``block_evals`` and the warm delta)
that CI tracks across commits.  Set ``BENCH_SMOKE=1`` for the small
grid CI runs.
"""

import json
import os
from pathlib import Path

from repro.runner import SweepEngine, SweepSpec, TIMING_FIELDS
from repro.store import get_default_store, reset_default_store

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
N = 40 if SMOKE else 150
SPEC = SweepSpec(
    topologies=("square", "disk", "clusters"),
    ns=(N,),
    modes=("global", "oblivious"),
    alphas=(3.0, 3.5, 4.0),
    seeds=1,
)  # 3 x 2 x 3 = 18 cells sharing 3 deployments and 3 trees

OUT = Path(os.environ.get("BENCH_OUT_DIR", ".")) / "BENCH_stage_store.json"


def _strip_timing(results):
    rows = []
    for r in results:
        row = r.to_json_dict()
        for f in TIMING_FIELDS:
            row.pop(f, None)
        rows.append(json.dumps(row, sort_keys=True))
    return rows


def _block_evals() -> int:
    """Total kernel block evaluations across cached link sets."""
    return sum(
        links.kernel().stats.block_evals
        for links in get_default_store().values("links")
    )


def _builds(stats) -> dict:
    return {stage: counters["builds"] for stage, counters in stats.items()}


def _hit_rates(stats) -> dict:
    out = {}
    for stage, counters in stats.items():
        lookups = counters["hits"] + counters["builds"] + counters["disk_hits"]
        out[stage] = round(counters["hits"] / lookups, 4) if lookups else None
    return out


def run_cold():
    reset_default_store()
    return SweepEngine(SPEC, jobs=1).run()


def test_stage_store_cold_vs_warm(benchmark, emit):
    cold = benchmark.pedantic(run_cold, rounds=1, iterations=1)
    cold_evals = _block_evals()

    warm = SweepEngine(SPEC, jobs=1).run()
    warm_evals_delta = _block_evals() - cold_evals

    cells = SPEC.num_cells
    assert cold.executed == warm.executed == cells
    assert cold.failed == warm.failed == 0

    # Distinct deployments/trees built exactly once each, cold.
    cold_builds, warm_builds = _builds(cold.store_stats), _builds(warm.store_stats)
    assert cold_builds["deploy"] == len(SPEC.topologies)
    assert cold_builds["tree"] == len(SPEC.topologies)
    assert cold_builds["deploy"] + cold_builds["tree"] <= cells / 2

    # Warm run: strictly fewer builds than cold, zero for every stage.
    assert warm_builds["deploy"] < cold_builds["deploy"]
    assert warm_builds["deploy"] == warm_builds["tree"] == 0
    assert warm_builds["schedule"] == 0
    assert cold_evals > 0
    assert warm_evals_delta == 0  # the warm pass evaluates no kernel entry

    # The cache never changes answers.
    assert _strip_timing(cold.results) == _strip_timing(warm.results)

    record = {
        "bench": "stage_store",
        "smoke": SMOKE,
        "grid": {
            "topologies": list(SPEC.topologies),
            "n": N,
            "modes": list(SPEC.modes),
            "alphas": list(SPEC.alphas),
            "cells": cells,
        },
        "cold": {
            "wall_time_s": round(cold.wall_time_s, 4),
            "cells_per_s": round(cells / cold.wall_time_s, 2),
            "stage_builds": cold_builds,
            "deploy_builds": cold_builds["deploy"],
            "block_evals": cold_evals,
            "hit_rates": _hit_rates(cold.store_stats),
        },
        "warm": {
            "wall_time_s": round(warm.wall_time_s, 4),
            "cells_per_s": round(cells / warm.wall_time_s, 2),
            "stage_builds": warm_builds,
            "deploy_builds": warm_builds["deploy"],
            "block_evals": warm_evals_delta,
            "hit_rates": _hit_rates(warm.store_stats),
        },
        "speedup": round(cold.wall_time_s / max(warm.wall_time_s, 1e-9), 2),
    }
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    emit(
        f"STORE: {cells}-cell topo x mode x alpha grid, n={N} (smoke={SMOKE})",
        [
            f"cold: {cold.wall_time_s:.2f}s ({record['cold']['cells_per_s']} cells/s), "
            f"builds={cold_builds}, kernel blocks={cold_evals}",
            f"warm: {warm.wall_time_s:.2f}s ({record['warm']['cells_per_s']} cells/s), "
            f"builds={warm_builds}, new kernel blocks={warm_evals_delta}",
            f"speedup: {record['speedup']}x; wrote {OUT}",
        ],
    )
