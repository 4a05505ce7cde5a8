"""The sweep orchestrator: leases cells out, collects results.

The orchestrator owns the authoritative copy of a sweep — which cells
are still pending, which are leased to a worker, which are done — and
serves it to any number of :mod:`repro.cluster.worker` processes over
the frame transport.  Its one fault-tolerance mechanism is the *lease*:

``pending`` --lease_request--> ``leased`` --result--> ``done``
      ^                            |
      +------- TTL expiry ---------+

A lease is a batch of cells granted to one worker with a deadline of
``lease_ttl_s`` seconds; a worker's heartbeat renews all of its leases.
Expiry is lazy — checked whenever a lease is granted or the waiter
polls — so a SIGKILLed worker's cells flow back to ``pending`` and the
next ``lease_request`` from a live worker picks them up.  Cells are
therefore *at-least-once*: a slow worker may finish a cell the
orchestrator already reassigned, so the first accepted result wins and
later deliveries are acknowledged as duplicates and dropped.  Because
cell execution is deterministic (same cell -> same row), at-least-once
delivery still yields byte-identical sweep output.

The orchestrator never touches the JSONL file itself; it invokes the
``on_result`` callback (under its lock, in acceptance order) and the
:class:`~repro.runner.engine.SweepEngine` does its usual
reorder-buffered, canonical-order appends — so content-based resume
works identically for cluster and inline sweeps.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import protocol
from repro.cluster.transport import FrameConnection, FrameServer
from repro.errors import ClusterError, ConfigurationError
from repro.runner.results import CellResult
from repro.runner.spec import CellSpec
from repro.store.store import StoreStats
from repro.util.validation import check_int_min, check_positive

__all__ = ["Lease", "Orchestrator"]

#: How long a finished orchestrator keeps answering ``shutdown`` to
#: idle workers before closing its socket (seconds).
DRAIN_GRACE_S = 0.5


def check_lease_settings(
    lease_ttl_s: float,
    batch_size: int,
    heartbeat_interval_s: Optional[float] = None,
) -> None:
    """:class:`ConfigurationError` unless ``lease_ttl_s`` (and
    ``heartbeat_interval_s``, when given) is finite and positive and
    ``batch_size`` is an integer >= 1.  A NaN deadline never expires,
    so a dead worker's cells would never be reassigned."""
    check_positive("lease_ttl_s", lease_ttl_s)
    check_int_min("batch_size", batch_size, minimum=1)
    if heartbeat_interval_s is not None:
        check_positive("heartbeat_interval_s", heartbeat_interval_s)


@dataclass
class Lease:
    """One batch of cells granted to one worker, with a deadline."""

    lease_id: int
    worker_id: str
    cell_ids: Tuple[str, ...]
    deadline: float

    def renew(self, ttl_s: float) -> None:
        self.deadline = time.monotonic() + ttl_s


@dataclass
class _ClusterStats:
    """Counters the orchestrator folds into ``SweepReport.cluster_stats``."""

    workers: set = field(default_factory=set)
    leases_granted: int = 0
    cells_leased: int = 0
    results_accepted: int = 0
    duplicate_results: int = 0
    reassignments: int = 0
    store_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workers": sorted(self.workers),
            "leases_granted": self.leases_granted,
            "cells_leased": self.cells_leased,
            "results_accepted": self.results_accepted,
            "duplicate_results": self.duplicate_results,
            "reassignments": self.reassignments,
            "store_stats": {s: dict(c) for s, c in self.store_stats.items()},
        }


class Orchestrator:
    """Serve one sweep's pending cells to cluster workers.

    Parameters
    ----------
    cells:
        The pending cells, in canonical enumeration order.
    on_result:
        Called as ``on_result(cell_id, result)`` under the orchestrator
        lock the first time each cell's result is accepted.
    lease_ttl_s / batch_size / heartbeat_interval_s:
        Lease deadline, cells per lease, and the cadence advertised to
        workers in ``welcome`` (a third of the TTL when not told
        otherwise, so a worker that misses one beat still has two full
        heartbeats of margin before its lease expires).
    host / port:
        Bind address (``port=0`` picks an ephemeral port, read back
        from :attr:`address`).
    """

    def __init__(
        self,
        cells: Sequence[CellSpec],
        *,
        on_result: Optional[Callable[[str, CellResult], None]] = None,
        lease_ttl_s: float = 30.0,
        batch_size: int = 4,
        heartbeat_interval_s: Optional[float] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        check_lease_settings(lease_ttl_s, batch_size, heartbeat_interval_s)
        self.lease_ttl_s = float(lease_ttl_s)
        self.batch_size = int(batch_size)
        self.heartbeat_interval_s = (
            float(heartbeat_interval_s)
            if heartbeat_interval_s is not None
            else max(self.lease_ttl_s / 3.0, 0.05)
        )
        self._on_result = on_result
        self._lock = threading.Lock()
        self._cells: Dict[str, CellSpec] = {c.cell_id: c for c in cells}
        if len(self._cells) != len(cells):
            raise ConfigurationError("duplicate cell_id in orchestrator cell list")
        self._pending: List[str] = [c.cell_id for c in cells]
        self._leases: Dict[int, Lease] = {}
        self._results: Dict[str, CellResult] = {}
        self._lease_ids = itertools.count(1)
        self.stats = _ClusterStats()
        self._done = threading.Event()
        if not self._cells:
            self._done.set()
        self._server = FrameServer(self._serve_connection, host=host, port=port)
        self.address: Tuple[str, int] = self._server.address

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Orchestrator":
        self._server.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> Dict[str, CellResult]:
        """Block until every cell has an accepted result.

        Raises :class:`ClusterError` on timeout; the sweep state is
        preserved, so a later ``wait()`` can still succeed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._done.is_set():
            with self._lock:
                self._expire_stale(time.monotonic())
            remaining = 0.2
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    with self._lock:
                        missing = len(self._cells) - len(self._results)
                    raise ClusterError(
                        f"cluster sweep timed out with {missing} of "
                        f"{len(self._cells)} cells unfinished"
                    )
            self._done.wait(remaining)
        return dict(self._results)

    def stop(self) -> None:
        """Answer stragglers briefly, then close the server socket."""
        if self._done.is_set():
            time.sleep(DRAIN_GRACE_S)
        self._server.stop()

    def __enter__(self) -> "Orchestrator":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling (one thread per worker connection)
    # ------------------------------------------------------------------
    def _serve_connection(
        self, conn: FrameConnection, peer: Tuple[str, int]
    ) -> None:
        with conn:
            while True:
                try:
                    message = conn.recv(timeout=None)
                except ClusterError:
                    return  # peer went away; leases expire on their own
                reply = self._dispatch(message)
                try:
                    conn.send(reply, timeout=5.0)
                except ClusterError:
                    return
                if reply["type"] == "goodbye_ack":
                    return

    def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """The one reply to one validated frame.  A frame the
        orchestrator cannot serve gets an ``error`` reply; handlers
        decode their whole payload before touching sweep state, so such
        a frame changes nothing."""
        msg_type = message["type"]
        worker_id = str(message.get("worker_id", "?"))
        try:
            if msg_type == "hello":
                return self._handle_hello(worker_id)
            if msg_type == "lease_request":
                return self._handle_lease_request(worker_id)
            if msg_type == "result":
                return self._handle_result(message)
            if msg_type == "heartbeat":
                return self._handle_heartbeat(worker_id)
            if msg_type == "goodbye":
                return self._handle_goodbye(worker_id)
        except ClusterError as exc:
            return protocol.make_message("error", detail=str(exc))
        return protocol.make_message(
            "error", detail=f"orchestrator cannot serve {msg_type!r} messages"
        )

    def _handle_hello(self, worker_id: str) -> Dict[str, Any]:
        with self._lock:
            self.stats.workers.add(worker_id)
        return protocol.make_message(
            "welcome",
            heartbeat_interval_s=self.heartbeat_interval_s,
            lease_ttl_s=self.lease_ttl_s,
            batch_size=self.batch_size,
            total_cells=len(self._cells),
        )

    def _handle_lease_request(self, worker_id: str) -> Dict[str, Any]:
        with self._lock:
            now = time.monotonic()
            self._expire_stale(now)
            if self._done.is_set():
                return protocol.make_message("shutdown")
            if not self._pending:
                # Everything is leased out; tell the worker to poll again
                # soon in case a lease expires back to pending.
                return protocol.make_message(
                    "idle", retry_after_s=min(self.lease_ttl_s / 2.0, 0.2)
                )
            batch = self._pending[: self.batch_size]
            del self._pending[: len(batch)]
            lease = Lease(
                lease_id=next(self._lease_ids),
                worker_id=worker_id,
                cell_ids=tuple(batch),
                deadline=now + self.lease_ttl_s,
            )
            self._leases[lease.lease_id] = lease
            self.stats.workers.add(worker_id)
            self.stats.leases_granted += 1
            self.stats.cells_leased += len(batch)
            cells = [protocol.encode_cell(self._cells[cid]) for cid in batch]
        return protocol.make_message(
            "lease", lease_id=lease.lease_id, cells=cells
        )

    def _handle_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        result = protocol.decode_result(message.get("result", {}))
        store_delta = protocol.decode_store_stats(message.get("store_stats"))
        with self._lock:
            if result.cell_id not in self._cells:
                return protocol.make_message(
                    "error",
                    detail=f"result for unknown cell {result.cell_id!r}",
                )
            if result.cell_id in self._results:
                self.stats.duplicate_results += 1
                return protocol.make_message(
                    "result_ack", cell_id=result.cell_id, duplicate=True
                )
            self._results[result.cell_id] = result
            self.stats.results_accepted += 1
            StoreStats.merge(self.stats.store_stats, store_delta)
            self._retire_cell(result.cell_id, message.get("lease_id"))
            if self._on_result is not None:
                self._on_result(result.cell_id, result)
            if len(self._results) == len(self._cells):
                self._done.set()
        return protocol.make_message(
            "result_ack", cell_id=result.cell_id, duplicate=False
        )

    def _handle_heartbeat(self, worker_id: str) -> Dict[str, Any]:
        with self._lock:
            renewed = 0
            for lease in self._leases.values():
                if lease.worker_id == worker_id:
                    lease.renew(self.lease_ttl_s)
                    renewed += 1
        return protocol.make_message("heartbeat_ack", leases_renewed=renewed)

    def _handle_goodbye(self, worker_id: str) -> Dict[str, Any]:
        with self._lock:
            self._release_worker(worker_id)
        return protocol.make_message("goodbye_ack")

    # ------------------------------------------------------------------
    # Lease bookkeeping (callers hold the lock)
    # ------------------------------------------------------------------
    def _retire_cell(self, cell_id: str, lease_id: Any) -> None:
        """Drop a finished cell from whichever lease still tracks it."""
        for lid, lease in list(self._leases.items()):
            if cell_id in lease.cell_ids:
                remaining = tuple(c for c in lease.cell_ids if c != cell_id)
                if remaining:
                    self._leases[lid] = Lease(
                        lid, lease.worker_id, remaining, lease.deadline
                    )
                else:
                    del self._leases[lid]

    def _expire_stale(self, now: float) -> None:
        """Return cells of overdue leases to the pending queue."""
        for lid, lease in list(self._leases.items()):
            if lease.deadline < now:
                del self._leases[lid]
                returned = [
                    cid for cid in lease.cell_ids if cid not in self._results
                ]
                self._pending.extend(returned)
                self.stats.reassignments += len(returned)

    def _release_worker(self, worker_id: str) -> None:
        """A politely departing worker hands its unfinished cells back."""
        for lid, lease in list(self._leases.items()):
            if lease.worker_id == worker_id:
                del self._leases[lid]
                self._pending.extend(
                    cid for cid in lease.cell_ids if cid not in self._results
                )
