"""The full-matrix builders and the paths that read them: the references
for the block functions of :mod:`repro.backend.blocks` and for every
library path that stopped building ``n x n`` arrays.

These are the earlier dense expressions, kept verbatim except that the
two whole distance matrices, once ``LinkSet.link_distances()`` and
``LinkSet.sender_receiver_distances()``, are read from
:func:`~repro.backend.blocks.gap_block` and
:func:`~repro.geometry.distances.cross_distances` over every index:

* :func:`additive_full` and :func:`affectance_full`, the whole additive
  kernel and normalised affectance;
* :func:`protocol_conflict_matrix` and :func:`protocol_colors`, the
  protocol-model scheduler's boolean conflict matrix and its first-fit
  loop;
* :func:`refine_dense`, :func:`mst_sparsity_bound_dense` and
  :func:`inductive_independence_dense`, the Theorem-2 refinement, the
  Lemma-1 bound and the Appendix-A measurement as they read a whole
  matrix;
* :func:`adjacency`, the dense boolean view of a conflict graph.

Nothing in the library calls them; ``tests/test_backend.py`` checks
every block against the matching slice of these bit for bit, and
``tests/test_dense_free_differential.py`` the rewritten paths against
the dense ones.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.backend.blocks import gap_block
from repro.geometry.distances import cross_distances
from repro.links.linkset import LinkSet
from repro.util.ordering import argsort_by_length_nonincreasing


def link_distances(links: LinkSet) -> np.ndarray:
    """Symmetric matrix of ``d(i, j)``: minimum node-to-node distance
    between links ``i`` and ``j`` (0 on the diagonal and whenever the
    links share an endpoint)."""
    everything = np.arange(len(links))
    return gap_block(links, everything, everything)


def sender_receiver_distances(links: LinkSet) -> np.ndarray:
    """Matrix ``D`` with ``D[j, i] = d(s_j, r_i)``.

    ``D[i, i]`` is the link length ``l_i``.  Interference from link
    ``j`` on link ``i`` decays with ``D[j, i]``.
    """
    return cross_distances(links.senders, links.receivers)


def additive_full(links: "LinkSet", alpha: float) -> np.ndarray:
    """Dense additive kernel."""
    gap = link_distances(links)
    lengths = links.lengths
    with np.errstate(divide="ignore", over="ignore"):
        ratio = (lengths[:, None] / gap) ** alpha
    m = np.minimum(1.0, ratio)
    np.fill_diagonal(m, 0.0)
    return m


def affectance_full(links: "LinkSet", alpha: float, beta: float) -> np.ndarray:
    """Dense normalised affectance."""
    dist = sender_receiver_distances(links)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = (links.lengths[None, :] / dist) ** alpha
    a = beta * ratio.T
    np.fill_diagonal(a, 0.0)
    return a


def protocol_conflict_matrix(links: LinkSet, guard: float = 1.0) -> np.ndarray:
    """Boolean conflict matrix of the protocol (disk) model.

    Links ``i`` and ``j`` conflict iff sender ``j`` lies within
    ``(1 + guard) * l_i`` of receiver ``i`` or vice versa (or they share
    a node).
    """
    dist = sender_receiver_distances(links)  # D[j, i] = d(s_j, r_i)
    reach = (1.0 + guard) * links.lengths  # reach[i] guards receiver i
    conflict = (dist <= reach[None, :]) | (dist.T <= reach[:, None])
    shared = link_distances(links) == 0.0
    conflict |= shared
    np.fill_diagonal(conflict, False)
    return conflict


def protocol_colors(links: LinkSet, guard: float = 1.0) -> np.ndarray:
    """The protocol-model scheduler's first-fit colors, longest first."""
    conflict = protocol_conflict_matrix(links, guard)
    order = argsort_by_length_nonincreasing(links.lengths)
    colors = np.full(len(links), -1, dtype=int)
    for v in order:
        used = {int(colors[u]) for u in np.flatnonzero(conflict[v]) if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def refine_dense(links: LinkSet, alpha: float, budget: float = 1.0) -> List[List[int]]:
    """The Theorem-2 refinement over the whole additive matrix."""
    m = additive_full(links, alpha)  # m[i, j] = I(i, j)
    buckets: List[List[int]] = []
    for i in argsort_by_length_nonincreasing(links.lengths).tolist():
        for bucket in buckets:
            if float(m[i, bucket].sum()) < budget:
                bucket.append(i)
                break
        else:
            buckets.append([i])
    return buckets


def mst_sparsity_bound_dense(links: LinkSet, alpha: float) -> float:
    """The Lemma-1 bound over the whole additive matrix."""
    m = additive_full(links, alpha)
    lengths = links.lengths
    worst = 0.0
    for i in range(len(links)):
        longer = np.flatnonzero(lengths >= lengths[i])
        longer = longer[longer != i]
        if longer.size:
            worst = max(worst, float(m[i, longer].sum()))
    return worst


def adjacency(graph) -> np.ndarray:
    """Read-only dense boolean adjacency matrix of a conflict graph."""
    n = graph.n
    dense = np.zeros((n, n), dtype=bool)
    dense[graph.edges()] = True
    dense.setflags(write=False)
    return dense


def _greedy_independent_size(adjacency: np.ndarray, candidates: np.ndarray) -> int:
    """Size of a maximal independent set grown greedily over candidates."""
    chosen: list[int] = []
    for v in candidates:
        if not any(adjacency[v, u] for u in chosen):
            chosen.append(int(v))
    return len(chosen)


def inductive_independence_dense(graph, *, exact_limit: int = 16) -> int:
    """Measured inductive independence over the dense adjacency."""
    lengths = graph.links.lengths
    dense = adjacency(graph)
    worst = 0
    for i in range(graph.n):
        nbrs = graph.neighbors(i)
        nbrs = nbrs[lengths[nbrs] >= lengths[i]]
        if nbrs.size == 0:
            continue
        if nbrs.size <= exact_limit:
            worst = max(worst, _exact_independent_size(dense, nbrs))
        else:
            worst = max(worst, _greedy_independent_size(dense, nbrs))
    return worst


def _exact_independent_size(adjacency: np.ndarray, vertices: np.ndarray) -> int:
    """Exact maximum independent set by branch and bound on few vertices."""
    verts = list(int(v) for v in vertices)

    def recurse(remaining: list[int]) -> int:
        if not remaining:
            return 0
        v, rest = remaining[0], remaining[1:]
        # Branch 1: skip v.
        best = recurse(rest)
        # Branch 2: take v, drop its neighbours.
        kept = [u for u in rest if not adjacency[v, u]]
        best = max(best, 1 + recurse(kept))
        return best

    return recurse(verts)
