"""Length-prefixed frame transport over stdlib sockets.

This is the *only* module in the library allowed to touch raw sockets
(reprolint rule NET-001 enforces that, the same way BACKEND-001 pins
``numpy`` imports to the backend layer).  Everything above it — the
orchestrator, the worker, the serve front-end — deals in message dicts
from :mod:`repro.cluster.protocol`.

Framing is deliberately boring: each frame is a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON.  A frame larger than
:data:`MAX_FRAME_BYTES` is rejected before allocation, so a corrupt
length prefix cannot make a peer swallow gigabytes.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cluster.protocol import validate_message
from repro.errors import ClusterError, ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameConnection",
    "FrameServer",
    "connect",
]

#: Upper bound on one frame's JSON payload; a sweep cell or result row
#: is a few hundred bytes, so 32 MiB is beyond generous and small
#: enough that a garbled length prefix fails fast.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def _encode_frame(message: Dict[str, Any]) -> bytes:
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"outgoing frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable cluster frame: {exc}") from None
    return validate_message(message)


class FrameConnection:
    """One framed, message-oriented connection.

    Thread-safe for the request/reply discipline the protocol uses: a
    lock serialises whole ``request()`` exchanges, so the heartbeat
    thread and the lease loop can share a connection without
    interleaving frames.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._closed = False

    def send(self, message: Dict[str, Any], *, timeout: Optional[float] = None) -> None:
        """Write one frame; raises :class:`ClusterError` on a dead peer."""
        frame = _encode_frame(message)
        try:
            self._sock.settimeout(timeout)
            self._sock.sendall(frame)
        except (OSError, ValueError) as exc:
            raise ClusterError(f"cluster send failed: {exc}") from None

    def recv(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Read one frame; raises :class:`ClusterError` on EOF/timeout."""
        try:
            self._sock.settimeout(timeout)
            header = self._recv_exact(_LENGTH.size)
            (length,) = _LENGTH.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame limit"
                )
            payload = self._recv_exact(length)
        except socket.timeout:
            raise ClusterError(
                f"cluster recv timed out after {timeout}s"
            ) from None
        except OSError as exc:
            raise ClusterError(f"cluster recv failed: {exc}") from None
        return _decode_payload(payload)

    def request(
        self, message: Dict[str, Any], *, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """One send + one recv, atomically with respect to other threads."""
        with self._lock:
            self.send(message, timeout=timeout)
            return self.recv(timeout=timeout)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ClusterError("cluster peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "FrameConnection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def connect(
    host: str,
    port: int,
    *,
    timeout: float = 5.0,
    retries: int = 5,
    backoff_s: float = 0.1,
) -> FrameConnection:
    """Dial a frame peer with exponential-backoff reconnect.

    Tries ``retries + 1`` times, sleeping ``backoff_s * 2**attempt``
    between failures, then raises :class:`ClusterError` carrying the
    last OS error.
    """
    last_error: Optional[Exception] = None
    for attempt in range(retries + 1):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return FrameConnection(sock)
        except OSError as exc:
            last_error = exc
            if attempt < retries:
                time.sleep(backoff_s * (2**attempt))
    raise ClusterError(
        f"cannot reach cluster peer at {host}:{port} after "
        f"{retries + 1} attempts: {last_error}"
    ) from None


class FrameServer:
    """A threaded accept loop handing each connection to a callback.

    The handler runs on a daemon thread per connection and receives a
    :class:`FrameConnection` plus the peer address; it owns the
    connection's lifetime.  ``port=0`` binds an ephemeral port, read
    back from :attr:`address` — tests and same-host quick-starts never
    need to guess a free port.
    """

    def __init__(
        self,
        handler: Callable[[FrameConnection, Tuple[str, int]], None],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._handler = handler
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(64)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._stopping = threading.Event()
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _accept_loop(self) -> None:
        try:
            self._sock.settimeout(0.2)
        except OSError:
            # stop() may close the socket before this thread first runs.
            return
        while not self._stopping.is_set():
            try:
                client, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._handler,
                args=(FrameConnection(client), peer[:2]),
                name=f"repro-cluster-conn-{peer[0]}:{peer[1]}",
                daemon=True,
            )
            thread.start()

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)

    def __enter__(self) -> "FrameServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
