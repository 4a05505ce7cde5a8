"""The :class:`LinkSet`: vectorised geometry for a collection of links.

All scheduling and feasibility machinery operates on link sets.  The
class holds the link lengths ``l_i`` and computes, on each call and
keeping neither, the sender-to-receiver matrix ``d_ji = d(s_j, r_i)``
(interference travels from sender ``j`` to receiver ``i``) and the
link-to-link distance ``d(i, j)``: the minimum distance between *nodes*
of the two links (over the four endpoint pairs), as defined in Section
2.  Every link index a method takes is checked by
:func:`~repro.util.validation.check_link_indices`: none is truncated or
wrapped to a link.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.backend import SPARSE_BACKEND
from repro.backend.blocks import gap_block
from repro.errors import DegenerateLinkError, LinkError
from repro.geometry.distances import cross_distances
from repro.links.link import Link
from repro.util.validation import check_link_indices

__all__ = ["LinkSet"]


class LinkSet:
    """An ordered, immutable collection of directed links.

    Parameters
    ----------
    senders, receivers:
        ``(n, d)`` coordinate arrays (rows correspond per index).
    sender_ids, receiver_ids:
        Optional node indices into an originating pointset.
    """

    __slots__ = (
        "_senders",
        "_receivers",
        "_sender_ids",
        "_receiver_ids",
        "_lengths",
        "_kernel_cache",
    )

    def __init__(
        self,
        senders,
        receivers,
        *,
        sender_ids: Optional[Sequence[int]] = None,
        receiver_ids: Optional[Sequence[int]] = None,
    ) -> None:
        s = np.atleast_2d(np.asarray(senders, dtype=float))
        r = np.atleast_2d(np.asarray(receivers, dtype=float))
        if s.shape != r.shape:
            raise LinkError(f"senders {s.shape} and receivers {r.shape} must match")
        if s.shape[0] == 0:
            raise LinkError("a LinkSet must contain at least one link")
        if s.shape[1] == 1:
            # Overflow-safe 1-D path: norm squares coordinates, which
            # overflows on the ~1e154-scale adversarial line instances.
            lengths = np.abs(s[:, 0] - r[:, 0])
        else:
            lengths = np.linalg.norm(s - r, axis=1)
        if np.any(lengths <= 0):
            # Rejected eagerly: a zero-length link would make every
            # l_max / l_min threshold ratio downstream a divide-by-zero
            # RuntimeWarning and poison adjacency with NaN.
            raise DegenerateLinkError(
                "all links must have positive length "
                "(zero-length links have coincident sender and receiver)"
            )
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(r))):
            raise LinkError("link coordinates must be finite")
        self._senders = s
        self._receivers = r
        self._lengths = lengths
        n = s.shape[0]
        self._sender_ids = (
            np.full(n, -1, dtype=int)
            if sender_ids is None
            else np.asarray(sender_ids, dtype=int)
        )
        self._receiver_ids = (
            np.full(n, -1, dtype=int)
            if receiver_ids is None
            else np.asarray(receiver_ids, dtype=int)
        )
        if self._sender_ids.shape != (n,) or self._receiver_ids.shape != (n,):
            raise LinkError("sender_ids / receiver_ids must have one entry per link")
        for arr in (self._senders, self._receivers, self._lengths):
            arr.setflags(write=False)
        self._kernel_cache = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_links(links: Sequence[Link]) -> "LinkSet":
        """Build a LinkSet from :class:`Link` objects."""
        if not links:
            raise LinkError("need at least one link")
        senders = np.array([l.sender for l in links], dtype=float)
        receivers = np.array([l.receiver for l in links], dtype=float)
        return LinkSet(
            senders,
            receivers,
            sender_ids=[l.sender_id for l in links],
            receiver_ids=[l.receiver_id for l in links],
        )

    @staticmethod
    def from_pointset_edges(points, edges: Sequence) -> "LinkSet":
        """Build a LinkSet from ``(sender_index, receiver_index)`` pairs
        over a :class:`~repro.geometry.PointSet`."""
        edges = list(edges)
        if not edges:
            raise LinkError("need at least one edge")
        sid = np.array([e[0] for e in edges], dtype=int)
        rid = np.array([e[1] for e in edges], dtype=int)
        coords = points.coords
        return LinkSet(coords[sid], coords[rid], sender_ids=sid, receiver_ids=rid)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._senders.shape[0]

    def __iter__(self) -> Iterator[Link]:
        for i in range(len(self)):
            yield self.link(i)

    def __repr__(self) -> str:
        return f"LinkSet(n={len(self)}, dim={self.dimension})"

    def _link_index(self, i: int) -> int:
        """Link index ``i`` as an int; a :class:`LinkError` unless it is
        one integer in ``[0, n)``."""
        if np.ndim(i) != 0:
            raise LinkError(f"link index {i!r} is not an integer")
        return int(check_link_indices(i, len(self))[0])

    def link(self, i: int) -> Link:
        """Materialise link ``i`` as a :class:`Link` object."""
        i = self._link_index(i)
        return Link(
            tuple(self._senders[i]),
            tuple(self._receivers[i]),
            int(self._sender_ids[i]),
            int(self._receiver_ids[i]),
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def senders(self) -> np.ndarray:
        """``(n, d)`` sender coordinates."""
        return self._senders

    @property
    def receivers(self) -> np.ndarray:
        """``(n, d)`` receiver coordinates."""
        return self._receivers

    @property
    def sender_ids(self) -> np.ndarray:
        """Node indices of senders (or ``-1``)."""
        return self._sender_ids

    @property
    def receiver_ids(self) -> np.ndarray:
        """Node indices of receivers (or ``-1``)."""
        return self._receiver_ids

    @property
    def lengths(self) -> np.ndarray:
        """Link lengths ``l_i``."""
        return self._lengths

    @property
    def dimension(self) -> int:
        """Ambient dimension."""
        return self._senders.shape[1]

    @property
    def diversity(self) -> float:
        """Link-length diversity ``Delta(L) = l_max / l_min``."""
        return float(self._lengths.max() / self._lengths.min())

    # ------------------------------------------------------------------
    # Distance structure
    # ------------------------------------------------------------------
    def sender_receiver_distances(self) -> np.ndarray:
        """Matrix ``D`` with ``D[j, i] = d(s_j, r_i)``.

        ``D[i, i]`` is the link length ``l_i``.  Interference from link
        ``j`` on link ``i`` decays with ``D[j, i]``.  Computed on each
        call.
        """
        return cross_distances(self._senders, self._receivers)

    def link_distances(self) -> np.ndarray:
        """Symmetric matrix of ``d(i, j)``: minimum node-to-node distance
        between links ``i`` and ``j`` (0 on the diagonal and whenever the
        links share an endpoint).  Computed on each call."""
        everything = np.arange(len(self))
        return gap_block(self, everything, everything)

    def kernel(
        self,
        *,
        block_size: Optional[int] = None,
        backend: Optional[str] = None,
    ):
        """The :class:`~repro.sinr.kernels.KernelCache` attached to this
        link set (created lazily, shared by all consumers).

        Called with no arguments, returns the existing cache (or a
        default-configured one).  Explicit arguments reconfigure *only
        the options passed*: unspecified options keep the attached
        cache's current values, and the cache (with its counters) is
        replaced only if the merged configuration actually differs.  A
        *new* LinkSet starts with a fresh cache.
        """
        from repro.sinr.kernels import KernelCache

        current = self._kernel_cache
        if current is not None:
            if block_size is None and backend is None:
                return current
            if block_size is None:
                block_size = current.block_size
            if backend is None and current.sparse:
                backend = SPARSE_BACKEND
        requested = KernelCache(self, block_size=block_size, backend=backend)
        if current is None or current.config() != requested.config():
            self._kernel_cache = requested
        return self._kernel_cache

    # ------------------------------------------------------------------
    # Subsetting
    # ------------------------------------------------------------------
    def subset(self, indices) -> "LinkSet":
        """A new LinkSet containing the given link indices (in order)."""
        idx = check_link_indices(indices, len(self))
        if idx.size == 0:
            raise LinkError("subset must contain at least one link")
        return LinkSet(
            self._senders[idx],
            self._receivers[idx],
            sender_ids=self._sender_ids[idx],
            receiver_ids=self._receiver_ids[idx],
        )

    def longer_than(self, i: int, *, strict: bool = False) -> np.ndarray:
        """Indices of ``S+_i``: links at least as long as link ``i``
        (excluding ``i`` itself)."""
        i = self._link_index(i)
        li = self._lengths[i]
        mask = self._lengths > li if strict else self._lengths >= li
        mask[i] = False
        return np.flatnonzero(mask)

    def shorter_than(self, i: int, *, strict: bool = False) -> np.ndarray:
        """Indices of ``S-_i``: links at most as long as link ``i``
        (excluding ``i`` itself)."""
        i = self._link_index(i)
        li = self._lengths[i]
        mask = self._lengths < li if strict else self._lengths <= li
        mask[i] = False
        return np.flatnonzero(mask)

    def reversed(self) -> "LinkSet":
        """All links re-directed the opposite way."""
        return LinkSet(
            self._receivers,
            self._senders,
            sender_ids=self._receiver_ids,
            receiver_ids=self._sender_ids,
        )
