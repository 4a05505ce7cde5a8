"""Coloring validation helpers."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.conflict.graph import ConflictGraph

__all__ = ["is_proper_coloring", "color_classes"]


def is_proper_coloring(graph: ConflictGraph, colors: np.ndarray) -> bool:
    """Whether no conflict edge is monochromatic and all vertices are
    colored: one ``O(n + edges)`` pass over the graph's CSR edges."""
    colors = np.asarray(colors, dtype=int)
    if colors.shape != (graph.n,) or np.any(colors < 0):
        return False
    rows, cols = graph.edges()
    return not bool((colors[rows] == colors[cols]).any())


def color_classes(colors: np.ndarray) -> Dict[int, List[int]]:
    """Mapping color -> sorted vertex indices."""
    colors = np.asarray(colors, dtype=int)
    classes: Dict[int, List[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(int(c), []).append(v)
    return classes
