"""The paper's contribution as a public API."""

from repro.core.capacity import CapacityComparison, compare_power_modes
from repro.core.theory import (
    predicted_slots,
    predicted_slots_cor1,
    predicted_slots_global,
    predicted_slots_oblivious,
)

__all__ = [
    "CapacityComparison",
    "compare_power_modes",
    "predicted_slots",
    "predicted_slots_cor1",
    "predicted_slots_global",
    "predicted_slots_oblivious",
]
