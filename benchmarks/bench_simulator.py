"""SIMULATOR — the closed-form frame simulator against the slot-by-slot oracle.

The frame simulator is how the repo checks the paper's rate claim (a
certified schedule with ``C`` slots sustains one frame every ``C``
slots with bounded buffers, the Fig. 1 discussion), and it is where
frame sweeps spend their time.  ``AggregationSimulator.run`` computes
every node's send slots for all frames at once; the original
slot-by-slot simulator is kept as the test oracle in
``tests/oracles/simulator_slotwise.py``.

This bench times both on MST schedules of uniform-square deployments,
``n`` in {100, 400, 1000} x {oblivious, global} power x 200 frames at
the schedule's rate, and writes ``BENCH_simulator.json``.  The closed
form is timed twice: as it runs SUM, folding the values over whole
frames with SUM's array form (``new_seconds``), and with that array
form cleared, so it combines one Python value per frame
(``list_seconds``).  Each row records the three timings (best of
``REPEATS`` alternating runs), the in-run speedups over the oracle
(``speedup``) and of the whole-frame fold (``fold_speedup``), and the
deterministic counters ``slots_elapsed``, ``max_backlog`` and
``frames_completed``; every row asserts that all three return equal
results, field for field.  The >= 10x target over the oracle and the
>= 2x fold target at n >= 400 are asserted on the full grid only.  Set
``BENCH_SMOKE=1`` for the small CI grid.
"""

import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from repro.aggregation.functions import SUM
from repro.aggregation.simulator import AggregationSimulator
from repro.api import Pipeline, PipelineConfig
from repro.store.store import StageStore

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.simulator_slotwise import SlotwiseSimulator  # noqa: E402

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUT = Path(os.environ.get("BENCH_OUT_DIR", ".")) / "BENCH_simulator.json"

FRAMES = 200
REPEATS = 3
MODES = ("oblivious", "global")
SIZES = (100,) if SMOKE else (100, 400, 1000)
HEADLINE_SPEEDUP = 10.0
FOLD_SPEEDUP = 2.0

#: SUM without its array form: the simulator's one-value-per-frame path.
SUM_LIST = dataclasses.replace(SUM, lift_array=None, combine_array=None)

RECORD = {"bench": "simulator", "smoke": SMOKE, "frames": FRAMES}


def _timed(simulator) -> tuple:
    start = time.perf_counter()
    result = simulator.run(FRAMES, rng=0)
    return time.perf_counter() - start, result


def _row(n: int, mode: str) -> dict:
    """Simulate ``FRAMES`` frames on the square ``n``-node MST schedule
    with the oracle and the closed form, on both value paths; assert
    equal results and return the row."""
    art = Pipeline(
        PipelineConfig(topology="square", n=n, power=mode, num_frames=0),
        store=StageStore(),
    ).run()
    oracle = SlotwiseSimulator(art.tree, art.schedule)
    simulator = AggregationSimulator(art.tree, art.schedule)
    listwise = AggregationSimulator(art.tree, art.schedule, SUM_LIST)
    oracle_s = new_s = list_s = float("inf")
    for _ in range(REPEATS):
        seconds, expected = _timed(oracle)
        oracle_s = min(oracle_s, seconds)
        seconds, by_list = _timed(listwise)
        list_s = min(list_s, seconds)
        seconds, result = _timed(simulator)
        new_s = min(new_s, seconds)
    # The differential contract at benchmark scale: every field equal.
    assert dataclasses.asdict(result) == dataclasses.asdict(expected), (n, mode)
    assert dataclasses.asdict(by_list) == dataclasses.asdict(expected), (n, mode)
    assert result.stable and result.values_correct, (n, mode)
    return {
        "n": n,
        "mode": mode,
        "frames": FRAMES,
        "period": art.schedule.num_slots,
        "oracle_seconds": round(oracle_s, 4),
        "list_seconds": round(list_s, 4),
        "new_seconds": round(new_s, 4),
        "speedup": round(oracle_s / new_s, 2),
        "fold_speedup": round(list_s / new_s, 2),
        "slots_elapsed": result.slots_elapsed,
        "max_backlog": result.max_backlog,
        "frames_completed": result.frames_completed,
    }


def test_simulator_speedup(emit):
    """Equal results on every row; >= 10x over the oracle and >= 2x
    from the whole-frame fold at n >= 400 (full grid)."""
    rows = []
    lines = []
    for n in SIZES:
        for mode in MODES:
            row = _row(n, mode)
            if not SMOKE and n >= 400:
                assert row["speedup"] >= HEADLINE_SPEEDUP, row
                assert row["fold_speedup"] >= FOLD_SPEEDUP, row
            rows.append(row)
            lines.append(
                f"n={n:>5} {mode:<9} C={row['period']:>3}  "
                f"oracle {row['oracle_seconds']:.3f}s  list {row['list_seconds']:.4f}s  "
                f"new {row['new_seconds']:.4f}s  ({row['speedup']:.1f}x, "
                f"fold {row['fold_speedup']:.1f}x)  slots={row['slots_elapsed']} "
                f"backlog={row['max_backlog']}"
            )
    RECORD["rows"] = rows
    OUT.write_text(json.dumps(RECORD, indent=2, sort_keys=True) + "\n")
    emit(f"SIMULATOR oracle vs closed form, list vs array values ({FRAMES} frames, smoke={SMOKE})", lines)
