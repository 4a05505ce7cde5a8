"""Differential suite: the closed-form frame simulator against the
slot-by-slot oracle and the level-by-level array pass.

:class:`repro.aggregation.simulator.AggregationSimulator` computes every
node's send slots for one repeat of frames and unrolls them;
``tests/oracles/simulator_slotwise.py`` keeps the original simulator
that steps the schedule slot by slot, and
``tests/oracles/simulator_levels.py`` the array pass that computed every
frame at every depth.  Every test here runs all three on the same input
and asserts that every :class:`SimulationResult` field is equal, and
that the finalised sink value of every completed frame is equal bit for
bit (a logging ``finalize``).  A tracing aggregate whose
partials record their own combination tree checks that values are
combined in the same order on the list path, and an order-sensitive
aggregate with an array form (``2a + b``) checks it on the array path,
which folds the built-ins over whole frames from
``ARRAY_MIN_FRAMES`` frames on.  ``TestRepeat`` runs long enough at
``P >= C`` for the repeat of ``K = C / gcd(P, C)`` frames to unroll.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.aggregation.median as median_module
from oracles.simulator_levels import LevelSimulator
from oracles.simulator_slotwise import SlotwiseSimulator
from repro.aggregation.functions import (
    COUNT,
    MAX,
    MEAN,
    MIN,
    SUM,
    AggregationFunction,
    threshold_count,
)
from repro.aggregation.median import median_via_counting
from repro.aggregation.simulator import ARRAY_MIN_FRAMES, AggregationSimulator
from repro.api import Pipeline, PipelineConfig
from repro.geometry.point import PointSet
from repro.scheduling.builder import ScheduleBuilder
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.model import SINRModel
from repro.spanning.tree import AggregationTree
from repro.store.store import StageStore
from repro.util.rng import as_generator

TOPOLOGIES = ("square", "disk", "grid", "clusters", "exponential")
MODES = ("uniform", "oblivious", "global")
SIZES = (2, 3, 7, 40, 120)
FUNCTIONS = (SUM, MAX, MIN, COUNT, MEAN, threshold_count(50.0))
FRAMES = 8
assert FRAMES >= ARRAY_MIN_FRAMES  # the grid runs the array path

#: Order-sensitive, with an array form: a partial's weight records when
#: it was combined, so equal values mean equal combination orders.
ORDERED = AggregationFunction(
    "ordered",
    lift=float,
    combine=lambda a, b: 2.0 * a + b,
    lift_array=lambda r: np.asarray(r, dtype=float),
    combine_array=lambda a, b: 2.0 * a + b,
)

#: SUM without its array form: the one-value-per-frame path at any
#: frame count.
SUM_LIST = dataclasses.replace(SUM, lift_array=None, combine_array=None)


@dataclass(frozen=True)
class _Trace(AggregationFunction):
    """Partials are nested ``(left, right)`` pairs, so a completed value
    is the exact tree of combinations that produced it.  ``finalize``
    logs each value the simulator verifies and the reference evaluation
    is stubbed out, so both report every frame as correct."""

    def aggregate(self, readings):
        return 0.0


def _trace(log: List[object]) -> AggregationFunction:
    return _Trace(
        "trace",
        lift=lambda r: r,
        combine=lambda a, b: (a, b),
        finalize=lambda v: log.append(v) or 0.0,
    )


@dataclass(frozen=True)
class _Logged(AggregationFunction):
    """An aggregate whose ``finalize`` also logs each in-network value
    the simulator verifies; the centralised references are those of
    ``reference`` and log nothing."""

    reference: Optional[AggregationFunction] = None

    def aggregate(self, readings):
        return self.reference.aggregate(readings)

    def aggregate_frames(self, readings):
        return self.reference.aggregate_frames(readings)


def _logged(function: AggregationFunction, log: List[object]) -> AggregationFunction:
    def finalize(value):
        log.append(function.finalize(value))
        return log[-1]

    fields = {f.name: getattr(function, f.name) for f in dataclasses.fields(AggregationFunction)}
    return _Logged(**{**fields, "finalize": finalize}, reference=function)


def _bits(values: List[object]) -> List[object]:
    """Each value with its type; a float as its IEEE bits, so that
    ``0.0`` and ``-0.0`` differ."""
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in values]


ORACLES = (SlotwiseSimulator, LevelSimulator)


def _assert_same(tree, schedule, function, frames, **kwargs) -> None:
    """Equal results, and bit-identical finalised sink values."""
    new_log: List[object] = []
    new = AggregationSimulator(tree, schedule, _logged(function, new_log)).run(frames, **kwargs)
    assert len(new_log) == new.frames_completed, (function, kwargs)
    for oracle in ORACLES:
        old_log: List[object] = []
        old = oracle(tree, schedule, _logged(function, old_log)).run(frames, **kwargs)
        assert dataclasses.asdict(new) == dataclasses.asdict(old), (oracle, function, kwargs)
        assert _bits(new_log) == _bits(old_log), (oracle, function, kwargs)


def _assert_same_order(tree, schedule, frames, **kwargs) -> None:
    new_log: List[object] = []
    new = AggregationSimulator(tree, schedule, _trace(new_log)).run(frames, **kwargs)
    assert new.values_correct and len(new_log) == new.frames_completed
    for oracle in ORACLES:
        old_log: List[object] = []
        old = oracle(tree, schedule, _trace(old_log)).run(frames, **kwargs)
        assert dataclasses.asdict(new) == dataclasses.asdict(old), (oracle, kwargs)
        assert new_log == old_log, (oracle, kwargs)


@functools.lru_cache(maxsize=None)
def _instance(topology: str, mode: str, n: int) -> Tuple[AggregationTree, Schedule]:
    art = Pipeline(
        PipelineConfig(topology=topology, n=n, power=mode, num_frames=0),
        store=StageStore(),
    ).run()
    return art.tree, art.schedule


def _regimes(period: int):
    """Injection at rate, at 2C, at C+1, at C//2 and every slot, each
    with the default and with a truncating ``max_slots``."""
    for injection in (None, 2 * period, period + 1, max(1, period // 2), 1):
        for max_slots in (None, 3 * period + 1):
            yield {"injection_period": injection, "max_slots": max_slots}


class TestPipelineGrid:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_field_equal(self, topology, mode, n):
        tree, schedule = _instance(topology, mode, n)
        for kwargs in _regimes(schedule.num_slots):
            for function in FUNCTIONS:
                _assert_same(tree, schedule, function, FRAMES, rng=n, **kwargs)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_combination_order_equal(self, topology, mode):
        tree, schedule = _instance(topology, mode, 40)
        for kwargs in _regimes(schedule.num_slots):
            _assert_same_order(tree, schedule, FRAMES, rng=3, **kwargs)
            _assert_same(tree, schedule, ORDERED, FRAMES, rng=3, **kwargs)

    def test_wrong_values_flagged_alike(self):
        # Subtraction is not associative, so the network computes other
        # values than the centralised reference: both simulators must
        # flag them, for exact (int) and float (isclose) values.
        tree, schedule = _instance("square", "global", 40)
        for function in (
            AggregationFunction("minus-int", lift=int, combine=lambda a, b: a - b),
            AggregationFunction("minus", lift=float, combine=lambda a, b: a - b),
        ):
            for kwargs in _regimes(schedule.num_slots):
                _assert_same(tree, schedule, function, FRAMES, rng=5, **kwargs)
            result = AggregationSimulator(tree, schedule, function).run(FRAMES, rng=5)
            assert result.frames_completed and not result.values_correct

    def test_explicit_readings(self):
        tree, schedule = _instance("square", "global", 40)
        readings = np.arange(3 * 40, dtype=float).reshape(3, 40)
        for function in FUNCTIONS:
            _assert_same(tree, schedule, function, 3, readings=readings)

    def test_one_frame_runs(self):
        # Each median_via_counting probe is a one-frame run.
        tree, schedule = _instance("square", "global", 40)
        for kwargs in _regimes(schedule.num_slots):
            for function in FUNCTIONS + (ORDERED,):
                _assert_same(tree, schedule, function, 1, rng=4, **kwargs)

    def test_arrival_order_differs_between_frames(self):
        # Injecting one slot slower than the schedule's rate: with the
        # same readings in every frame, the traced combination trees
        # differ between frames, so some node's children arrive in
        # another order in some frame, and the array fold must rank
        # their rows frame by frame.
        tree, schedule = _instance("square", "uniform", 40)
        kwargs = {"injection_period": schedule.num_slots + 1}
        readings = np.tile(np.arange(40, dtype=float), (FRAMES, 1))
        log: List[object] = []
        AggregationSimulator(tree, schedule, _trace(log)).run(FRAMES, readings=readings, **kwargs)
        assert len(log) == FRAMES and len(set(log)) > 1
        for function in FUNCTIONS + (ORDERED,):
            _assert_same(tree, schedule, function, FRAMES, readings=readings, **kwargs)
            _assert_same(tree, schedule, function, FRAMES, rng=6, **kwargs)

    def test_signed_zeros_and_infinities(self):
        # Python's max(0.0, -0.0) and min(0.0, -0.0) keep their first
        # argument; -0.0 + -0.0 is -0.0; inf - inf is NaN and 1e308 +
        # 1e308 overflows, silently.  The array path must agree, bit for
        # bit and without numpy warnings.
        tree, schedule = _instance("square", "global", 40)
        gen = as_generator(11)
        zeros = gen.choice([0.0, -0.0], size=(FRAMES, 40))
        specials = gen.choice([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1e308], size=(FRAMES, 40))
        for readings in (zeros, specials, -np.abs(zeros)):
            for function in FUNCTIONS + (ORDERED,):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    _assert_same(tree, schedule, function, FRAMES, readings=readings)


def _repeat(period: int, injection: int) -> int:
    """Frames in one repeat at injection period ``injection >= period``."""
    return period // math.gcd(injection, period)


def _unrolled(period: int):
    """``(frames, kwargs)`` pairs that unroll a repeat at least three
    times, with a last repeat cut short: ``P = C`` and ``2C`` (``K =
    1``), ``C + 1`` (``K = C``) and, for an even ``C``, ``3C/2`` (``K =
    2``); each with the default ``max_slots`` and one that stops the run
    about halfway, inside a repeat."""
    frames = 3 * period + 1
    injections = [period, 2 * period, period + 1]
    if period % 2 == 0:
        injections.append(3 * period // 2)
    for injection in injections:
        assert frames >= 3 * _repeat(period, injection)
        for max_slots in (None, frames * injection // 2 + period // 2 + 1):
            yield frames, {"injection_period": injection, "max_slots": max_slots}


class TestRepeat:
    """Runs long enough at ``P >= C`` that the timing pass's one repeat
    of ``K`` frames is unrolled, on the array fold, the list path (SUM
    with its array form cleared) and the traced combination order."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_field_equal(self, topology, mode):
        tree, schedule = _instance(topology, mode, 40)
        for frames, kwargs in _unrolled(schedule.num_slots):
            for function in (SUM, SUM_LIST, MEAN, MAX, ORDERED):
                _assert_same(tree, schedule, function, frames, rng=7, **kwargs)
            _assert_same_order(tree, schedule, frames, rng=7, **kwargs)

    def test_repeat_of_two_frames(self):
        # An even period at P = 3C/2: frame f + 2 is frame f shifted by
        # 3C slots, and the arrival orders of frames 0 and 1 differ, so
        # the fold ranks rows by frame residue.
        tree, schedule = _instance("square", "uniform", 40)
        period = schedule.num_slots
        assert period % 2 == 0
        kwargs = {"injection_period": 3 * period // 2}
        assert _repeat(period, kwargs["injection_period"]) == 2
        readings = np.tile(np.arange(40, dtype=float), (3 * period + 1, 1))
        log: List[object] = []
        AggregationSimulator(tree, schedule, _trace(log)).run(
            len(readings), readings=readings, **kwargs
        )
        assert log[0] != log[1]
        assert log[0::2] == [log[0]] * len(log[0::2])
        assert log[1::2] == [log[1]] * len(log[1::2])
        for function in (SUM, SUM_LIST, ORDERED):
            _assert_same(tree, schedule, function, len(readings), readings=readings, **kwargs)

    def test_larger_trees(self):
        for topology in ("square", "clusters"):
            tree, schedule = _instance(topology, "oblivious", 120)
            for frames, kwargs in _unrolled(schedule.num_slots):
                for function in (SUM, SUM_LIST):
                    _assert_same(tree, schedule, function, frames, rng=120, **kwargs)


@st.composite
def _random_schedules(draw):
    """A random tree with a random sink, under a random slot partition
    built without SINR validation: a node's receive and transmit can
    share a slot, in either in-slot order."""
    n = draw(st.integers(2, 10))
    attach = draw(st.permutations(range(n)))
    edges = [
        (attach[i], attach[draw(st.integers(0, i - 1))]) for i in range(1, n)
    ]
    tree = AggregationTree(
        PointSet(np.arange(n, dtype=float)), edges, sink=draw(st.integers(0, n - 1))
    )
    links = tree.links()
    colors = draw(st.lists(st.integers(0, n - 2), min_size=n - 1, max_size=n - 1))
    in_slot = draw(st.permutations(range(n - 1)))
    slots = []
    for color in sorted(set(colors)):
        members = tuple(i for i in in_slot if colors[i] == color)
        slots.append(Slot(members, (1.0,) * len(members)))
    schedule = Schedule(links, slots, SINRModel(alpha=3.0, beta=1.0), validate=False)
    return tree, schedule


class TestRandomPartitions:
    @settings(max_examples=60, deadline=None)
    @given(
        instance=_random_schedules(),
        frames=st.integers(1, 12),
        injection=st.one_of(st.none(), st.integers(1, 12)),
        max_slots=st.one_of(st.none(), st.integers(1, 60)),
        function=st.sampled_from(FUNCTIONS + (ORDERED,)),
        seed=st.integers(0, 2**16),
    )
    def test_every_field_equal(self, instance, frames, injection, max_slots, function, seed):
        tree, schedule = instance
        _assert_same(
            tree, schedule, function, frames,
            injection_period=injection, max_slots=max_slots, rng=seed,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        instance=_random_schedules(),
        frames=st.integers(1, 12),
        injection=st.one_of(st.none(), st.integers(1, 12)),
        max_slots=st.one_of(st.none(), st.integers(1, 60)),
    )
    def test_combination_order_equal(self, instance, frames, injection, max_slots):
        tree, schedule = instance
        _assert_same_order(
            tree, schedule, frames, injection_period=injection, max_slots=max_slots
        )

    def test_in_slot_handover(self):
        # Chain 2 -> 1 -> 0 with both links in one slot: child first
        # hands frame 0 over within the slot, parent first waits a period.
        tree = AggregationTree(PointSet([0.0, 1.0, 2.0]), [(0, 1), (1, 2)], sink=0)
        model = SINRModel(alpha=3.0, beta=1.0)
        child_first = Schedule(tree.links(), [Slot((1, 0), (1.0, 1.0))], model, validate=False)
        parent_first = Schedule(tree.links(), [Slot((0, 1), (1.0, 1.0))], model, validate=False)
        fast = AggregationSimulator(tree, child_first).run(1)
        slow = AggregationSimulator(tree, parent_first).run(1)
        assert fast.latencies == [1] and slow.latencies == [2]
        for schedule in (child_first, parent_first):
            for function in FUNCTIONS:
                _assert_same(tree, schedule, function, 4, injection_period=1)


def test_median_via_counting_same_through_both(model, monkeypatch):
    points = PointSet(as_generator(7).uniform(0.0, 1.0, size=(25, 2)))
    tree = AggregationTree.mst(points)
    schedule = ScheduleBuilder(model, "global").build_for_tree(tree)
    readings = as_generator(8).uniform(0.0, 100.0, size=25)
    new = median_via_counting(readings, tree=tree, schedule=schedule)
    monkeypatch.setattr(median_module, "AggregationSimulator", SlotwiseSimulator)
    old = median_via_counting(readings, tree=tree, schedule=schedule)
    assert new == old
    assert new.slots_used > 0
