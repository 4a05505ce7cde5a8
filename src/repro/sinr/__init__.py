"""The physical (SINR) interference model and feasibility oracles.

All pairwise interference quantities are computed by the kernel layer
in :mod:`repro.sinr.kernels`: a :class:`~repro.sinr.kernels.KernelCache`
attached to each :class:`~repro.links.linkset.LinkSet` serves row,
submatrix and column-sum queries of the additive /
relative-interference / affectance kernels by computing only the
entries asked for, memoizing none, and streams row blocks on 10k+ link
networks so no ``n x n`` float64 matrix is ever materialised.
"""

from repro.sinr.affectance import (
    additive_interference,
    relative_interference_matrix,
)
from repro.sinr.feasibility import (
    is_feasible_with_power,
    max_relative_interference,
    sinr_values,
)
from repro.sinr.kernels import KernelCache, KernelStats
from repro.sinr.model import SINRModel
from repro.sinr.robustness import FadingChannel, measure_retransmissions
from repro.sinr.powercontrol import (
    affectance_matrix,
    feasible_power_assignment,
    is_feasible_some_power,
    spectral_radius,
)

__all__ = [
    "FadingChannel",
    "KernelCache",
    "KernelStats",
    "SINRModel",
    "additive_interference",
    "measure_retransmissions",
    "affectance_matrix",
    "feasible_power_assignment",
    "is_feasible_some_power",
    "is_feasible_with_power",
    "max_relative_interference",
    "relative_interference_matrix",
    "sinr_values",
    "spectral_radius",
]
