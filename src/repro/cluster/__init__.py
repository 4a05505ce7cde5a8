"""Distributed sweep execution: protocol, orchestrator, worker, service.

The cluster subsystem shards a :class:`~repro.runner.spec.SweepSpec`
across worker processes — on one host or many — without changing any
output contract: the orchestrator feeds accepted results to the same
reorder-buffered JSONL writer the inline engine uses, so cluster and
local sweeps are byte-identical (timing fields aside) and content-based
resume works unchanged.

Layering, bottom up:

- :mod:`repro.cluster.transport` — length-prefixed JSON frames over
  stdlib sockets (the only module allowed to touch sockets; NET-001).
- :mod:`repro.cluster.protocol` — the schema-versioned message set
  (hello/lease/result/heartbeat/goodbye) and payload codecs.
- :mod:`repro.cluster.orchestrator` / :mod:`repro.cluster.worker` —
  the lease state machine and the cell-running peer (``repro worker``).
- :mod:`repro.cluster.serve` — ``repro serve``, sweeps as long-lived
  HTTP/JSONL jobs.
"""

from repro.cluster.orchestrator import Lease, Orchestrator
from repro.cluster.protocol import (
    MESSAGE_TYPES,
    PROTOCOL_SCHEMA_VERSION,
    make_message,
    parse_address,
    validate_message,
)
from repro.cluster.serve import ServeApp, serve_forever
from repro.cluster.transport import FrameConnection, FrameServer, connect
from repro.cluster.worker import Worker, default_worker_id

__all__ = [
    "MESSAGE_TYPES",
    "PROTOCOL_SCHEMA_VERSION",
    "FrameConnection",
    "FrameServer",
    "Lease",
    "Orchestrator",
    "ServeApp",
    "Worker",
    "connect",
    "default_worker_id",
    "make_message",
    "parse_address",
    "serve_forever",
    "validate_message",
]
