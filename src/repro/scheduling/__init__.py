"""TDMA schedules: construction, certification, baselines, distributed."""

from repro.scheduling.baselines import (
    greedy_sinr_schedule,
    protocol_model_schedule,
    trivial_tdma_schedule,
)
from repro.scheduling.builder import PowerMode, ScheduleBuilder
from repro.scheduling.distributed import DistributedSchedulingSimulator
from repro.scheduling.exact import minimum_schedule, minimum_schedule_length
from repro.scheduling.fractional import optimal_fractional_rate
from repro.scheduling.incremental import (
    IncrementalScheduler,
    RepairCost,
    ScheduleState,
    link_ids_for_links,
)
from repro.scheduling.repair import split_into_feasible_slots
from repro.scheduling.schedule import Schedule, Slot

__all__ = [
    "DistributedSchedulingSimulator",
    "IncrementalScheduler",
    "PowerMode",
    "RepairCost",
    "Schedule",
    "ScheduleBuilder",
    "ScheduleState",
    "Slot",
    "link_ids_for_links",
    "minimum_schedule",
    "minimum_schedule_length",
    "optimal_fractional_rate",
    "greedy_sinr_schedule",
    "protocol_model_schedule",
    "split_into_feasible_slots",
    "trivial_tdma_schedule",
]
