"""Link orderings used by the paper's algorithms.

The greedy coloring algorithm processes links in **non-increasing**
length order (Appendix A), while the distributed protocol sweeps length
classes from longest to shortest.  Ties are broken by index so orderings
are deterministic and stable.

:func:`first_fit` is the packing policy built on the longest-first
order: the repair pass, the greedy SINR baseline and the Theorem-2
refinement all place each link into the first slot that accepts it.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

__all__ = [
    "argsort_by_length_nondecreasing",
    "argsort_by_length_nonincreasing",
    "first_fit",
]


def argsort_by_length_nonincreasing(lengths: np.ndarray) -> np.ndarray:
    """Indices sorting ``lengths`` longest-first (stable on ties)."""
    lengths = np.asarray(lengths, dtype=float)
    # Stable sort of -lengths keeps original index order within ties.
    return np.argsort(-lengths, kind="stable")


def argsort_by_length_nondecreasing(lengths: np.ndarray) -> np.ndarray:
    """Indices sorting ``lengths`` shortest-first (stable on ties)."""
    lengths = np.asarray(lengths, dtype=float)
    return np.argsort(lengths, kind="stable")


def first_fit(
    lengths: np.ndarray,
    indices: Sequence[int],
    fits: Callable[[List[int], int], bool],
) -> List[List[int]]:
    """First-fit decreasing: pack ``indices`` longest-first into slots.

    ``lengths[k]`` is the length of ``indices[k]``.  Each link joins the
    first slot (in creation order) for which ``fits(slot, link)`` holds
    and opens a new slot when none does; ``fits`` sees the slot's
    members before the link is appended.  Returns the slots in creation
    order, members in insertion order.
    """
    slots: List[List[int]] = []
    for k in argsort_by_length_nonincreasing(lengths):
        link = indices[k]
        for slot in slots:
            if fits(slot, link):
                slot.append(link)
                break
        else:
            slots.append([link])
    return slots
