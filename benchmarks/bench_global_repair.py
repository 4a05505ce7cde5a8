"""GLOBAL REPAIR — the Perron-bound global packer against the ``eigvals`` loop.

Theorem 1's global-power mode certifies each slot by Perron-Frobenius:
a slot is feasible under some power iff ``rho(A) < 1`` for its
normalised affectance matrix ``A``.  The repair pass that splits a
color class into such slots
(:func:`repro.scheduling.repair.split_into_feasible_slots`) fetches the
class's affectance block once and decides each first-fit probe with
warm-started Collatz-Wielandt bounds, falling back to ``eigvals`` only
near the limit.  The original loop, which rebuilds the probe's block
and runs a dense ``eigvals`` for every probe, is kept as the oracle in
``tests/oracles/repair_loops.py``.

This bench runs both over every color class of schedule-build's
global instances: uniform-square MSTs with ``n`` = 500 (seeds 0-5) and
``n`` = 1000, alpha = 3.  Each row records the build's split classes,
first-fit probes, how many probes the bounds decided and how many fell
back to ``eigvals`` (counted by wrapping ``spectral_radius`` and the
decision helper at their import sites; the library keeps no counter),
its slots, the oracle and packer split seconds (best of ``REPEATS``
alternating runs) and the in-run speedup.  Every row asserts that the
packer's slots equal the oracle's and that the certified powers equal
the original power solve's bit for bit.  Set ``BENCH_SMOKE=1`` for the
one-build CI grid.
"""

import json
import os
import sys
import time
from pathlib import Path

import repro.scheduling.repair as repair
import repro.sinr.powercontrol as powercontrol
from repro.api import Pipeline, PipelineConfig
from repro.coloring.greedy import greedy_coloring
from repro.coloring.validation import color_classes
from repro.scheduling.builder import ScheduleBuilder
from repro.sinr.powercontrol import feasible_power_assignment
from repro.store.store import StageStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.repair_loops import (  # noqa: E402
    eigvals_feasible,
    eigvals_power_assignment,
    split_with_predicate,
)

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUT = Path(os.environ.get("BENCH_OUT_DIR", ".")) / "BENCH_global_repair.json"

REPEATS = 3
GRID = ((500, 0),) if SMOKE else tuple((500, seed) for seed in range(6)) + ((1000, 0),)

RECORD = {"bench": "global_repair", "smoke": SMOKE, "repeats": REPEATS}


def _classes(n: int, seed: int):
    """Links, model and color classes of schedule-build's global build."""
    config = PipelineConfig(topology="square", n=n, power="global", seed=seed, num_frames=0)
    pipeline = Pipeline(config, store=StageStore())
    links = pipeline.build_tree(pipeline.deploy()).links()
    builder = ScheduleBuilder(pipeline.model, "global")
    classes = color_classes(greedy_coloring(builder.conflict_graph(links)))
    return links, pipeline.model, [classes[c] for c in sorted(classes)]


def _decisions(links, model, classes) -> list:
    """Per class, the packer's ``(size, fell_back)`` decisions in call
    order; the first decision of a class of two or more links is its
    whole-class check, the rest are first-fit probes."""
    raw_helper, raw_radius = repair._perron_feasible, powercontrol.spectral_radius
    fallbacks = []

    def radius(matrix):
        fallbacks.append(1)
        return raw_radius(matrix)

    def helper(a, limit, start=None):
        before = len(fallbacks)
        out = raw_helper(a, limit, start)
        current.append((a.shape[0], len(fallbacks) > before))
        return out

    repair._perron_feasible, powercontrol.spectral_radius = helper, radius
    try:
        per_class = []
        for cls in classes:
            current = []
            repair.split_into_feasible_slots(links, cls, model)
            per_class.append(current)
    finally:
        repair._perron_feasible, powercontrol.spectral_radius = raw_helper, raw_radius
    return per_class


def _row(n: int, seed: int) -> dict:
    """Split every color class of one global build with the oracle and
    the packer; assert equal slots and powers and return the row."""
    links, model, classes = _classes(n, seed)
    predicate = eigvals_feasible(links, model)
    oracle_s = packer_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        expected = [split_with_predicate(links, cls, predicate) for cls in classes]
        oracle_s = min(oracle_s, time.perf_counter() - start)
        start = time.perf_counter()
        packed = [repair.split_into_feasible_slots(links, cls, model) for cls in classes]
        packer_s = min(packer_s, time.perf_counter() - start)
    # The differential contract at benchmark scale: equal slots, and
    # bitwise-equal powers from the certification step.
    assert packed == expected, (n, seed)
    slots = [slot for pieces in packed for slot in pieces]
    for slot in slots:
        assert (
            feasible_power_assignment(links, model, slot).tobytes()
            == eigvals_power_assignment(links, model, slot).tobytes()
        ), (n, seed, slot)
    probes = [d for per_class in _decisions(links, model, classes) for d in per_class[1:]]
    fallbacks = sum(fell_back for _, fell_back in probes)
    return {
        "n": n,
        "seed": seed,
        "classes": len(classes),
        "split_classes": sum(len(pieces) > 1 for pieces in packed),
        "probes": len(probes),
        "bound_decided": len(probes) - fallbacks,
        "fallbacks": fallbacks,
        "max_probe_size": max((size for size, _ in probes), default=0),
        "slots": len(slots),
        "oracle_seconds": round(oracle_s, 4),
        "packer_seconds": round(packer_s, 4),
        "speedup": round(oracle_s / packer_s, 2),
    }


def test_global_repair_speedup(emit):
    """Equal slots and powers on every row; the bounds decide at least
    95% of the probes and the packer splits at least 3x faster."""
    rows = []
    lines = []
    for n, seed in GRID:
        row = _row(n, seed)
        assert row["fallbacks"] <= 0.05 * row["probes"], row
        assert row["speedup"] >= 3.0, row
        rows.append(row)
        lines.append(
            f"n={n:>5} seed={seed}  classes={row['classes']} split={row['split_classes']}  "
            f"probes={row['probes']:>4} (bounds {row['bound_decided']}, eigvals "
            f"{row['fallbacks']})  slots={row['slots']}  oracle {row['oracle_seconds']:.3f}s  "
            f"packer {row['packer_seconds']:.3f}s  ({row['speedup']:.1f}x)"
        )
    RECORD["rows"] = rows
    oracle = sum(r["oracle_seconds"] for r in rows)
    packer = sum(r["packer_seconds"] for r in rows)
    RECORD["total"] = {
        "oracle_seconds": round(oracle, 4),
        "packer_seconds": round(packer, 4),
        "speedup": round(oracle / packer, 2),
        "probes": sum(r["probes"] for r in rows),
        "fallbacks": sum(r["fallbacks"] for r in rows),
    }
    OUT.write_text(json.dumps(RECORD, indent=2, sort_keys=True) + "\n")
    emit(f"GLOBAL REPAIR eigvals loop vs Perron-bound packer (smoke={SMOKE})", lines)
