"""FIXED REPAIR — the fixed-power packer against the per-probe loop.

Under a fixed power vector (the paper's oblivious ``P_tau`` and the
uniform and linear assignments) a color class that violates Equation
(1) is split first-fit, longest first, into certified slots
(:func:`repro.scheduling.repair.split_into_feasible_slots_fixed_power`).
The packer fetches one relative block per color class of at most
``2 * block_size`` links, decides the whole class from its column sums,
packs from the same block permuted to length order, and rejects a probe
as soon as one member denominator exceeds the limit derived from
``sinr_from_denominators``.  The original loop, which fetches two
kernel blocks per probe after a separate whole-class check, is kept as
the oracle in ``tests/oracles/repair_loops.py``.

This bench runs both over every color class the builds split: the two
oblivious instances of perfbench's schedule-build (uniform-square MSTs
with ``n`` = 2000 on a dense kernel and ``n`` = 4200 on a chunked one,
whose 1,284- and 1,221-link classes exceed ``block_size`` = 1024 but
not twice it, so each is still one block), and the 48 uniform- and
oblivious-power cells of sweep-frames' grid.  The classes and power
vectors are recorded from a cold ``Pipeline.run`` at the builder's
import site.  Each row records the classes, the split classes, the
first-fit probes (one per slot a link was tested against, derived from
the slots: first fit tries the slots in creation order), the kernel
entries each side evaluated, the oracle and packer seconds (best of
``REPEATS`` alternating runs), the in-run speedup and
``packer_peak_mib``, the ``tracemalloc`` peak of one more, untimed
packer pass over the row (kernel blocks and the pass's copies).  Every
row asserts that the packer's slots equal the oracle's.  Set
``BENCH_SMOKE=1`` for the one-instance CI grid.
"""

import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import repro.scheduling.builder as builder
from repro.api import Pipeline, PipelineConfig
from repro.links.linkset import LinkSet
from repro.runner.spec import SweepSpec
from repro.scheduling.repair import split_into_feasible_slots_fixed_power
from repro.store.store import StageStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.repair_loops import (  # noqa: E402
    split_into_feasible_slots_fixed_power as loop_split,
)

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUT = Path(os.environ.get("BENCH_OUT_DIR", ".")) / "BENCH_fixed_repair.json"

REPEATS = 3


def _sweep_cells():
    """sweep-frames' fixed-power cells (perfbench seed 0)."""
    spec = SweepSpec(
        topologies=("square", "clusters"),
        ns=(100, 150, 200),
        modes=("uniform", "oblivious"),
        seeds=4,
        base_seed=0,
        num_frames=0,
    )
    return [
        PipelineConfig(topology=c.topology, n=c.n, seed=c.seed, power=c.mode, num_frames=0)
        for c in spec.cells()
    ]


#: Row name -> the pipeline configs whose fixed-power splits it runs.
GRID = {
    "schedule-build n=2000": [
        PipelineConfig(topology="square", n=2000, power="oblivious", seed=6, num_frames=0)
    ],
}
if not SMOKE:
    GRID["schedule-build n=4200"] = [
        PipelineConfig(topology="square", n=4200, power="oblivious", seed=7, num_frames=0)
    ]
    GRID["sweep-frames fixed-power cells"] = _sweep_cells()

RECORD = {"bench": "fixed_repair", "smoke": SMOKE, "repeats": REPEATS}


def _twin(links: LinkSet) -> LinkSet:
    """The same geometry with a cold kernel cache of the same configuration."""
    twin = LinkSet(
        links.senders,
        links.receivers,
        sender_ids=links.sender_ids,
        receiver_ids=links.receiver_ids,
    )
    block_size, sparse = links.kernel().config()
    twin.kernel(block_size=block_size, backend="blocked-sparse" if sparse else None)
    return twin


def _splits(config: PipelineConfig) -> list:
    """``(links, class, power, model)`` of every fixed-power split a cold
    ``Pipeline.run`` of ``config`` makes."""
    calls = []
    raw = builder.split_into_feasible_slots_fixed_power

    def record(links, class_indices, power, model, **kwargs):
        calls.append((links, list(class_indices), np.asarray(power, dtype=float), model))
        return raw(links, class_indices, power, model, **kwargs)

    builder.split_into_feasible_slots_fixed_power = record
    try:
        Pipeline(config, store=StageStore()).run()
    finally:
        builder.split_into_feasible_slots_fixed_power = raw
    return calls


def _probes(pieces) -> int:
    """First-fit probes behind a split: a link placed in slot ``s`` was
    tested against slots ``0..s``, or ``0..s-1`` when it opened ``s``."""
    if len(pieces) == 1:
        return 0
    return sum((s + 1) * len(slot) - 1 for s, slot in enumerate(pieces))


def _entries(links: LinkSet) -> int:
    return links.kernel().stats.entries_served


def _row(name: str) -> dict:
    """Split every class of one grid row with the oracle and the packer;
    assert equal slots and return the row."""
    calls = [call for config in GRID[name] for call in _splits(config)]
    oracle_links = {id(links): _twin(links) for links, _, _, _ in calls}
    packer_links = {id(links): _twin(links) for links, _, _, _ in calls}

    def run(split, twins):
        start = time.perf_counter()
        out = [split(twins[id(links)], cls, vec, model) for links, cls, vec, model in calls]
        return out, time.perf_counter() - start

    oracle_s = packer_s = float("inf")
    oracle_entries = packer_entries = 0
    for rep in range(REPEATS):
        before = sum(_entries(t) for t in oracle_links.values())
        expected, seconds = run(loop_split, oracle_links)
        oracle_s = min(oracle_s, seconds)
        if rep == 0:
            oracle_entries = sum(_entries(t) for t in oracle_links.values()) - before
        before = sum(_entries(t) for t in packer_links.values())
        packed, seconds = run(split_into_feasible_slots_fixed_power, packer_links)
        packer_s = min(packer_s, seconds)
        if rep == 0:
            packer_entries = sum(_entries(t) for t in packer_links.values()) - before
        # The differential contract at benchmark scale: equal slots.
        assert packed == expected, name
    tracemalloc.start()
    run(split_into_feasible_slots_fixed_power, packer_links)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    split = [pieces for pieces in packed if len(pieces) > 1]
    return {
        "name": name,
        "instances": len(GRID[name]),
        "classes": len(calls),
        "split_classes": len(split),
        "links_split": sum(len(slot) for pieces in split for slot in pieces),
        "max_class": max(len(cls) for _, cls, _, _ in calls),
        "probes": sum(_probes(pieces) for pieces in split),
        "slots": sum(len(pieces) for pieces in packed),
        "oracle_entries": oracle_entries,
        "packer_entries": packer_entries,
        "oracle_seconds": round(oracle_s, 4),
        "packer_seconds": round(packer_s, 4),
        "speedup": round(oracle_s / packer_s, 2),
        "packer_peak_mib": round(peak / 2**20, 2),
    }


def test_fixed_repair_speedup(emit):
    """Equal slots on every row; the packer evaluates fewer kernel
    entries than the loop and splits faster."""
    rows = []
    lines = []
    for name in GRID:
        row = _row(name)
        assert row["packer_entries"] < row["oracle_entries"], row
        assert row["speedup"] >= 1.0, row
        rows.append(row)
        lines.append(
            f"{name:<32} classes={row['classes']:>4} split={row['split_classes']:>3}  "
            f"probes={row['probes']:>6} over {row['links_split']} links  "
            f"entries {row['oracle_entries']:,} -> {row['packer_entries']:,}  "
            f"oracle {row['oracle_seconds']:.3f}s  packer {row['packer_seconds']:.3f}s  "
            f"({row['speedup']:.1f}x, peak {row['packer_peak_mib']:.1f} MiB)"
        )
    RECORD["rows"] = rows
    oracle = sum(r["oracle_seconds"] for r in rows)
    packer = sum(r["packer_seconds"] for r in rows)
    RECORD["total"] = {
        "oracle_seconds": round(oracle, 4),
        "packer_seconds": round(packer, 4),
        "speedup": round(oracle / packer, 2),
        "probes": sum(r["probes"] for r in rows),
        "oracle_entries": sum(r["oracle_entries"] for r in rows),
        "packer_entries": sum(r["packer_entries"] for r in rows),
    }
    OUT.write_text(json.dumps(RECORD, indent=2, sort_keys=True) + "\n")
    emit(f"FIXED REPAIR per-probe loop vs one-block packer (smoke={SMOKE})", lines)
