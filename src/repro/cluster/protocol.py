"""The cluster wire protocol: schema-versioned JSON messages.

The distributed sweep service speaks a small request/reply protocol over
length-prefixed JSON frames (:mod:`repro.cluster.transport` owns the
bytes; this module owns the *messages*).  Every frame is one JSON object
carrying a ``type`` from :data:`MESSAGE_TYPES` and the protocol
``schema`` version; peers reject frames whose schema they do not speak,
so a rolling upgrade fails loudly at HELLO time instead of corrupting a
sweep halfway through.

Conversation shape (worker side; every request gets exactly one reply):

========================  ==========================================
worker sends              orchestrator replies
========================  ==========================================
``hello``                 ``welcome`` (heartbeat interval, batch size)
``lease_request``         ``lease`` | ``idle`` | ``shutdown``
``result`` (per cell)     ``result_ack`` (``duplicate`` flag)
``heartbeat``             ``heartbeat_ack``
``goodbye``               ``goodbye_ack``
========================  ==========================================

Sweep cells and their results cross the wire as the JSON dict forms of
:class:`~repro.runner.spec.CellSpec` and
:class:`~repro.runner.results.CellResult` (:func:`encode_cell` /
:func:`decode_cell`, :func:`encode_result` / :func:`decode_result`), so
a leased cell is *exactly* the object the inline engine would have run
— byte-identical rows are a protocol property, not an accident.

>>> msg = make_message("hello", worker_id="w1")
>>> validate_message(msg)["type"]
'hello'
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.runner.results import CellResult
from repro.runner.spec import CellSpec

__all__ = [
    "MESSAGE_TYPES",
    "PROTOCOL_SCHEMA_VERSION",
    "decode_cell",
    "decode_result",
    "decode_store_stats",
    "encode_cell",
    "encode_result",
    "make_message",
    "parse_address",
    "validate_message",
]

#: Bumped on any incompatible change to the message set or field shapes;
#: peers refuse to converse across versions (see :func:`validate_message`).
PROTOCOL_SCHEMA_VERSION = 1

#: Every legal ``type`` field, requests and replies together.
MESSAGE_TYPES = (
    "hello",
    "welcome",
    "lease_request",
    "lease",
    "idle",
    "shutdown",
    "result",
    "result_ack",
    "heartbeat",
    "heartbeat_ack",
    "goodbye",
    "goodbye_ack",
    "error",
)


def make_message(msg_type: str, **fields: Any) -> Dict[str, Any]:
    """A wire message dict: ``type`` + ``schema`` + payload fields."""
    if msg_type not in MESSAGE_TYPES:
        raise ProtocolError(
            f"unknown message type {msg_type!r}; valid types: "
            f"{', '.join(MESSAGE_TYPES)}"
        )
    message: Dict[str, Any] = {"type": msg_type, "schema": PROTOCOL_SCHEMA_VERSION}
    message.update(fields)
    return message


def validate_message(message: Any) -> Dict[str, Any]:
    """Check an incoming frame against the protocol; returns it.

    Raises
    ------
    ProtocolError
        When the frame is not a JSON object, lacks or mangles ``type``,
        or was produced under a different schema version.
    """
    if not isinstance(message, dict):
        raise ProtocolError(
            f"cluster frame must be a JSON object, got {type(message).__name__}"
        )
    msg_type = message.get("type")
    if msg_type not in MESSAGE_TYPES:
        raise ProtocolError(
            f"unknown message type {msg_type!r}; valid types: "
            f"{', '.join(MESSAGE_TYPES)}"
        )
    schema = message.get("schema")
    if schema != PROTOCOL_SCHEMA_VERSION:
        raise ProtocolError(
            f"protocol schema mismatch: peer speaks {schema!r}, this side "
            f"speaks {PROTOCOL_SCHEMA_VERSION}"
        )
    return message


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def encode_cell(cell: CellSpec) -> Dict[str, Any]:
    """The JSON dict form of one sweep cell (a ``lease`` payload row)."""
    return asdict(cell)


def decode_cell(data: Dict[str, Any]) -> CellSpec:
    """Inverse of :func:`encode_cell` (tolerates JSON lists-for-tuples)."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"lease cell must be a JSON object, got {type(data).__name__}"
        )
    payload = dict(data)
    try:
        if "measure" in payload:
            payload["measure"] = tuple(payload["measure"])
        return CellSpec(**payload)
    except TypeError as exc:
        raise ProtocolError(f"malformed lease cell: {exc}") from None


def encode_result(result: CellResult) -> Dict[str, Any]:
    """The JSON dict form of one cell result (a ``result`` payload)."""
    return result.to_json_dict()


def decode_result(data: Dict[str, Any]) -> CellResult:
    """Inverse of :func:`encode_result`."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"result payload must be a JSON object, got {type(data).__name__}"
        )
    try:
        result = CellResult.from_json_dict(data)
    except (ConfigurationError, TypeError) as exc:
        raise ProtocolError(f"malformed cell result: {exc}") from None
    if not isinstance(result.cell_id, str):
        raise ProtocolError(
            f"malformed cell result: cell_id must be a string, got {result.cell_id!r}"
        )
    return result


def decode_store_stats(data: Any) -> Dict[str, Dict[str, int]]:
    """Check a ``result`` frame's store-counter delta: stage name ->
    counter name -> int (absent or null means no delta)."""
    if data is None:
        return {}
    if not isinstance(data, dict) or not all(
        isinstance(stage, str)
        and isinstance(counters, dict)
        and all(isinstance(k, str) and type(v) is int for k, v in counters.items())
        for stage, counters in data.items()
    ):
        raise ProtocolError(f"store_stats must map stage -> counter -> int, got {data!r}")
    return data


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; the one address syntax the
    CLI and the engine accept (``--cluster host:port``)."""
    if not isinstance(text, str) or ":" not in text:
        raise ConfigurationError(
            f"cluster address must look like HOST:PORT, got {text!r}"
        )
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"cluster address port must be an integer, got {port_text!r}"
        ) from None
    if not host:
        raise ConfigurationError(
            f"cluster address must name a host, got {text!r}"
        )
    if not 0 <= port <= 65535:
        raise ConfigurationError(
            f"cluster address port must be in [0, 65535], got {port}"
        )
    return host, port
