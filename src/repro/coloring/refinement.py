"""The Theorem-2 refinement.

Iterate over links in non-increasing length order and first-fit each
link ``i`` into the first bucket ``S`` with ``I(i, S) < budget``
(``budget = 1`` in the paper).  For MST link sets, Lemma 1 guarantees a
constant number of buckets, and each bucket is independent in ``G1`` —
which is exactly the proof that ``chi(G1(MST)) = O(1)``.  Each link's
additive row is read once, in that order, from the kernel's row tiles.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.links.linkset import LinkSet
from repro.util.ordering import argsort_by_length_nonincreasing, first_fit
from repro.util.validation import check_positive

__all__ = ["refine_by_interference"]


def refine_by_interference(
    links: LinkSet, alpha: float, *, budget: float = 1.0
) -> List[List[int]]:
    """Partition link indices into buckets with ``I(i, S) < budget`` at
    insertion time (first-fit decreasing by length).

    Returns the buckets in creation order; their number is the paper's
    constant ``t``.  Within each bucket, every pair of links ``i`` and
    longer ``j`` satisfies ``I(i, j) < budget``; with ``budget <= 1``
    this forces ``d(i, j) > l_i`` — i.e. the bucket is independent in
    ``G1`` (Theorem 2's argument).  ``budget`` must be finite and
    positive (:class:`~repro.errors.ConfigurationError` otherwise).
    """
    budget = check_positive("budget", budget)
    order = argsort_by_length_nonincreasing(links.lengths)
    rows = zip(order.tolist(), links.kernel().additive_rows(alpha, order))
    link, row = -1, np.empty(0)

    def fits(bucket: List[int], i: int) -> bool:
        nonlocal link, row
        while link != i:  # first_fit visits the links in `order`
            link, row = next(rows)
        # I(i, S) = sum over j in S of I(i, j): interference that i
        # *induces* on the (all at-least-as-long) bucket members.
        return float(row[bucket].sum()) < budget

    return first_fit(links.lengths, range(len(links)), fits)
