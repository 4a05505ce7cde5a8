"""Median via repeated counting aggregations (Section 3.1).

The median is not compressible, but the paper notes it reduces to
``O(log V)`` *counting* aggregations through binary search on the value
domain: each probe asks "how many readings exceed t?".  This module
implements that driver on top of any counting-aggregation runner —
including the full convergecast simulator, so the probe cost in slots
is the schedule length times the number of probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.aggregation.functions import threshold_count
from repro.aggregation.simulator import AggregationSimulator, as_readings
from repro.errors import SimulationError
from repro.scheduling.schedule import Schedule
from repro.spanning.tree import AggregationTree
from repro.util.validation import check_int_min, check_positive

__all__ = ["median_via_counting", "MedianResult"]

#: A counting runner: given a threshold, returns how many readings exceed it.
CountRunner = Callable[[float], int]


@dataclass(frozen=True)
class MedianResult:
    """Outcome of the binary-search median computation."""

    median: float
    probes: int
    slots_used: int


def median_via_counting(
    readings: Sequence[float],
    runner: Optional[CountRunner] = None,
    *,
    tolerance: float = 1e-6,
    max_probes: int = 128,
    tree: Optional[AggregationTree] = None,
    schedule: Optional[Schedule] = None,
) -> MedianResult:
    """Compute the (lower) median by binary search over count probes.

    Two usage modes:

    * supply ``runner`` — any callable answering count-above-threshold
      queries (e.g. a network RPC in a real deployment);
    * supply ``tree`` and ``schedule`` — probes run through the full
      convergecast simulator, and ``slots_used`` reports the total
      number of TDMA slots consumed (probes x latency per probe).

    Every reading must be a finite number (:class:`SimulationError`
    otherwise): the binary search runs over the value domain.  A NaN,
    infinite or negative ``tolerance``, or a ``max_probes`` that is not
    an integer >= 1, is a :class:`ConfigurationError`.
    """
    tolerance = check_positive("tolerance", tolerance, strict=False)
    max_probes = check_int_min("max_probes", max_probes, minimum=1)
    values = as_readings(list(readings))
    if values.size == 0:
        raise SimulationError("median of zero readings is undefined")
    lo, hi = float(values.min()), float(values.max())
    if math.isinf(lo) or math.isinf(hi):
        raise SimulationError("median readings must be finite")
    n = values.size
    half = n // 2  # strictly-above count of the lower median is <= half

    slots_used = 0

    if runner is None:
        if tree is None or schedule is None:
            raise SimulationError("provide either a runner or a tree+schedule pair")
        simulator_readings = values.reshape(1, -1)

        def runner(threshold: float) -> int:
            nonlocal slots_used
            sim = AggregationSimulator(tree, schedule, threshold_count(threshold))
            result = sim.run(1, readings=simulator_readings)
            if not result.stable or not result.values_correct:
                raise SimulationError("counting probe failed to aggregate")
            slots_used += result.slots_elapsed
            # Recompute the count centrally: the simulator has already
            # verified the in-network value matches it.
            return int((values > threshold).sum())

    probes = 0
    # Invariant: count(> hi) <= half < count(> lo - eps); binary search
    # shrinks [lo, hi] onto the smallest value with count(> v) <= half.
    if runner(hi) > half:
        raise SimulationError("inconsistent counting runner: max has others above it")
    probes += 1
    while hi - lo > tolerance and probes < max_probes:
        mid = 0.5 * (lo + hi)
        probes += 1
        if runner(mid) > half:
            lo = mid
        else:
            hi = mid
    # Snap to the nearest actual reading at or below hi + tolerance.
    candidates = values[values <= hi + tolerance]
    median = float(candidates.max()) if candidates.size else float(hi)
    return MedianResult(median=median, probes=probes, slots_used=slots_used)
