"""Pointsets, metrics, distances and instance generators."""

from repro.geometry.distances import pairwise_distances
from repro.geometry.diversity import length_diversity, min_max_distances
from repro.geometry.generators import (
    TOPOLOGIES,
    cluster_points,
    cluster_points_total,
    exponential_line,
    grid_points,
    line_points,
    make_deployment,
    poisson_points,
    topology_uses_seed,
    uniform_disk,
    uniform_square,
)
from repro.geometry.metric import (
    doubling_constant,
    doubling_dimension,
    shadowed_distance_matrix,
)
from repro.geometry.point import PointSet

__all__ = [
    "TOPOLOGIES",
    "doubling_constant",
    "doubling_dimension",
    "shadowed_distance_matrix",
    "PointSet",
    "cluster_points",
    "cluster_points_total",
    "exponential_line",
    "grid_points",
    "length_diversity",
    "line_points",
    "make_deployment",
    "min_max_distances",
    "pairwise_distances",
    "poisson_points",
    "topology_uses_seed",
    "uniform_disk",
    "uniform_square",
]
