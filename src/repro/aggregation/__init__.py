"""Aggregation semantics: functions, the convergecast simulator, median."""

from repro.aggregation.functions import (
    COUNT,
    MAX,
    MEAN,
    MIN,
    SUM,
    AggregationFunction,
)
from repro.aggregation.median import median_via_counting
from repro.aggregation.multihop import TwoTierPlan, build_two_tier_aggregation
from repro.aggregation.simulator import AggregationSimulator, SimulationResult

__all__ = [
    "TwoTierPlan",
    "build_two_tier_aggregation",
    "AggregationFunction",
    "AggregationSimulator",
    "COUNT",
    "MAX",
    "MEAN",
    "MIN",
    "SUM",
    "SimulationResult",
    "median_via_counting",
]
