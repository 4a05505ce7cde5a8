"""SIMULATOR — the frame simulator against the slot-by-slot oracle and the level pass.

The frame simulator is how the repo checks the paper's rate claim (a
certified schedule with ``C`` slots sustains one frame every ``C``
slots with bounded buffers, the Fig. 1 discussion), and it is where
frame sweeps spend their time.  ``AggregationSimulator.run`` computes
every node's send slots for one repeat of ``K = C / gcd(P, C)`` frames
at an injection period ``P >= C`` (every frame below the rate) and
unrolls them; the original slot-by-slot simulator is kept as the test
oracle in ``tests/oracles/simulator_slotwise.py``, and the array pass
that computed every frame at every depth in
``tests/oracles/simulator_levels.py``.

This bench times them on MST schedules of uniform-square deployments,
``n`` in {100, 400, 1000} x {oblivious, global} power x 200 frames,
each injected at the schedule's rate (``P = C``, one frame per repeat),
one slot slower (``C + 1``, ``K = C``) and overloaded (``ceil(C/2)``,
every frame), plus one 1000-frame row at ``P = C``; and writes
``BENCH_simulator.json``.  The simulator is timed three ways: as it
runs SUM, folding the values over whole frames with SUM's array form
(``new_seconds``); with that array form cleared, so it combines one
Python value per frame (``list_seconds``); and the level pass on SUM
(``levels_seconds``).  Each row records the four timings (best of
``REPEATS`` alternating runs), the in-run speedups over the oracle
(``speedup``), of the whole-frame fold (``fold_speedup``) and of the
repeat over the level pass (``repeat_speedup``), and the deterministic
counters ``slots_elapsed``, ``max_backlog`` and ``frames_completed``;
every row asserts that all four return equal results, field for field.
The >= 10x target over the oracle and the >= 2x fold target at
n >= 400, and a repeat that is no slower than the level pass at
``P = C``, are asserted on the full grid only.  Set ``BENCH_SMOKE=1``
for the small CI grid.
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
from oracles.simulator_levels import LevelSimulator  # noqa: E402
from oracles.simulator_slotwise import SlotwiseSimulator  # noqa: E402

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUT = Path(os.environ.get("BENCH_OUT_DIR", ".")) / "BENCH_simulator.json"

FRAMES = 200
REPEATS = 3
MODES = ("oblivious", "global")
SIZES = (100,) if SMOKE else (100, 400, 1000)
HEADLINE_SPEEDUP = 10.0
FOLD_SPEEDUP = 2.0

#: Injection legs: the period ``P`` as a function of the schedule
#: period ``C``.
INJECTIONS = {
    "C": lambda c: c,
    "C+1": lambda c: c + 1,
    "ceil(C/2)": lambda c: -(-c // 2),
}
#: The long row: (n, mode, injection, frames).
LONG_ROW = (400, "oblivious", "C", 1000)

#: SUM without its array form: the simulator's one-value-per-frame path.
SUM_LIST = dataclasses.replace(SUM, lift_array=None, combine_array=None)

RECORD = {"bench": "simulator", "smoke": SMOKE, "frames": FRAMES}


def _timed(simulator, frames: int, injection_period: int) -> tuple:
    start = time.perf_counter()
    result = simulator.run(frames, injection_period=injection_period, rng=0)
    return time.perf_counter() - start, result


def _row(n: int, mode: str, injection: str = "C", frames: int = FRAMES) -> dict:
    """Simulate ``frames`` frames on the square ``n``-node MST schedule,
    injected every ``INJECTIONS[injection](C)`` slots, with the oracle,
    the level pass and the simulator on both value paths; assert equal
    results and return the row."""
    art = Pipeline(
        PipelineConfig(topology="square", n=n, power=mode, num_frames=0),
        store=StageStore(),
    ).run()
    period = art.schedule.num_slots
    injection_period = INJECTIONS[injection](period)
    simulators = {
        "oracle": SlotwiseSimulator(art.tree, art.schedule),
        "levels": LevelSimulator(art.tree, art.schedule),
        "list": AggregationSimulator(art.tree, art.schedule, SUM_LIST),
        "new": AggregationSimulator(art.tree, art.schedule),
    }
    seconds = dict.fromkeys(simulators, float("inf"))
    results = {}
    for _ in range(REPEATS):
        for name, simulator in simulators.items():
            elapsed, results[name] = _timed(simulator, frames, injection_period)
            seconds[name] = min(seconds[name], elapsed)
    # The differential contract at benchmark scale: every field equal.
    expected = dataclasses.asdict(results["oracle"])
    for name in ("levels", "list", "new"):
        assert dataclasses.asdict(results[name]) == expected, (n, mode, injection, name)
    result = results["new"]
    # An overloaded run (P < C) does not drain within the default stop.
    assert result.values_correct and (result.stable or injection_period < period), (
        n, mode, injection,
    )
    return {
        "n": n,
        "mode": mode,
        "injection": injection,
        "injection_period": injection_period,
        "frames": frames,
        "period": period,
        "oracle_seconds": round(seconds["oracle"], 4),
        "levels_seconds": round(seconds["levels"], 4),
        "list_seconds": round(seconds["list"], 4),
        "new_seconds": round(seconds["new"], 4),
        "speedup": round(seconds["oracle"] / seconds["new"], 2),
        "fold_speedup": round(seconds["list"] / seconds["new"], 2),
        "repeat_speedup": round(seconds["levels"] / seconds["new"], 2),
        "slots_elapsed": result.slots_elapsed,
        "max_backlog": result.max_backlog,
        "frames_completed": result.frames_completed,
    }


def test_simulator_speedup(emit):
    """Equal results on every row; on the full grid, >= 10x over the
    oracle and >= 2x from the whole-frame fold at n >= 400, and the
    repeat no slower than the level pass at ``P = C``."""
    grid = [
        (n, mode, injection, FRAMES) for n in SIZES for mode in MODES for injection in INJECTIONS
    ]
    if not SMOKE:
        grid.append(LONG_ROW)
    rows = []
    lines = []
    for n, mode, injection, frames in grid:
        row = _row(n, mode, injection, frames)
        if not SMOKE and n >= 400:
            assert row["speedup"] >= HEADLINE_SPEEDUP, row
            assert row["fold_speedup"] >= FOLD_SPEEDUP, row
        if not SMOKE and injection == "C":
            assert row["repeat_speedup"] >= 1.0, row
        rows.append(row)
        lines.append(
            f"n={n:>5} {mode:<9} C={row['period']:>3} P={injection:<9} F={frames:>4}  "
            f"oracle {row['oracle_seconds']:.3f}s  levels {row['levels_seconds']:.4f}s  "
            f"list {row['list_seconds']:.4f}s  new {row['new_seconds']:.4f}s  "
            f"({row['speedup']:.1f}x, fold {row['fold_speedup']:.1f}x, "
            f"repeat {row['repeat_speedup']:.2f}x)  slots={row['slots_elapsed']} "
            f"backlog={row['max_backlog']}"
        )
    RECORD["rows"] = rows
    OUT.write_text(json.dumps(RECORD, indent=2, sort_keys=True) + "\n")
    emit(f"SIMULATOR oracle, level pass and repeat, list vs array values (smoke={SMOKE})", lines)
