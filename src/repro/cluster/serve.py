"""``repro serve`` — sweeps as long-lived jobs over a thin HTTP/JSONL API.

The service turns a sweep from a CLI invocation into a *job*: submit a
:class:`~repro.runner.spec.SweepSpec` as JSON, poll its status, stream
its result rows as they land, or cancel it.  Each job runs a normal
:class:`~repro.runner.engine.SweepEngine` in its own *spawned* process
(spawn, not fork — the serve process runs an event loop and fork would
duplicate it) writing the usual reorder-buffered JSONL file under the
service's spool directory, so every guarantee of the local engine —
canonical row order, content-based resume, error-isolated cells —
holds for served jobs too.

Endpoints (all responses are JSON; ``Connection: close`` throughout):

=========================  ===========================================
``POST /jobs``             body = SweepSpec dict (+ optional ``jobs``,
                           ``cluster`` keys) → ``{"job_id": ...}``
``GET  /jobs``             list all jobs with status
``GET  /jobs/<id>``        one job's status + row counts
``GET  /jobs/<id>/stream`` JSONL: every result row as it is written,
                           then a final ``{"event": "end", ...}`` line
``POST /jobs/<id>/cancel`` terminate the job's process
``GET  /healthz``          liveness probe
=========================  ===========================================

A malformed request or an invalid spec gets ``400`` with an ``error``
message; only an unknown job id or route gets ``404``.

The HTTP layer is deliberately minimal (``asyncio.start_server`` plus
hand-rolled request parsing): enough for ``curl`` and the test-suite,
with zero new dependencies.  It is a front-end, not a proxy — the heavy
lifting stays in the engine and, with ``"cluster": "host:port"`` in the
submit body, in the distributed backend.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cluster.protocol import parse_address
from repro.errors import ConfigurationError, ReproError
from repro.runner.spec import SweepSpec

__all__ = [
    "JobRecord",
    "ServeApp",
    "UnknownJobError",
    "run_sweep_job",
    "serve_forever",
]

_MAX_REQUEST_BYTES = 8 * 1024 * 1024


class UnknownJobError(ConfigurationError):
    """No job has the requested id — the one client error that maps to
    HTTP 404; every other :class:`~repro.errors.ReproError` is a 400."""


def run_sweep_job(
    spec_data: Dict[str, Any],
    out_path: str,
    jobs: int,
    cluster: Optional[str],
) -> None:
    """Entry point of one job's spawned process: run the sweep to JSONL."""
    spec = SweepSpec.from_dict(spec_data)
    from repro.runner.engine import SweepEngine

    engine = SweepEngine(spec, jobs=jobs, out_path=out_path, cluster=cluster)
    engine.run()


class JobRecord:
    """One submitted sweep job and its child process."""

    def __init__(
        self, job_id: str, spec: SweepSpec, out_path: Path, total_cells: int
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.out_path = out_path
        self.total_cells = total_cells
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.cancelled = False

    @property
    def status(self) -> str:
        if self.cancelled:
            return "cancelled"
        if self.process is None:
            return "queued"
        code = self.process.exitcode
        if code is None:
            return "running"
        return "done" if code == 0 else "error"

    def rows_written(self) -> int:
        try:
            with open(self.out_path, "r", encoding="utf-8") as fh:
                return sum(1 for line in fh if line.strip())
        except OSError:
            return 0

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "total_cells": self.total_cells,
            "rows_written": self.rows_written(),
            "out_path": str(self.out_path),
        }


class ServeApp:
    """The job registry plus the request handlers behind ``repro serve``."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._jobs: Dict[str, JobRecord] = {}
        self._next_id = 1
        self._ctx = multiprocessing.get_context("spawn")

    # ------------------------------------------------------------------
    # Job operations
    # ------------------------------------------------------------------
    def submit(self, body: Dict[str, Any]) -> JobRecord:
        if not isinstance(body, dict):
            raise ConfigurationError("submit body must be a JSON object")
        payload = dict(body)
        jobs = payload.pop("jobs", 1)
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ConfigurationError(f"jobs must be a positive int, got {jobs!r}")
        cluster = payload.pop("cluster", None)
        if cluster is not None:
            parse_address(cluster)
        spec = SweepSpec.from_dict(payload)
        total = sum(1 for _ in spec.cells())
        job_id = f"job-{self._next_id:04d}"
        self._next_id += 1
        job_dir = self.spool_dir / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        record = JobRecord(job_id, spec, job_dir / "results.jsonl", total)
        record.process = self._ctx.Process(
            target=run_sweep_job,
            args=(spec.to_dict(), str(record.out_path), jobs, cluster),
            name=f"repro-serve-{job_id}",
            daemon=True,
        )
        record.process.start()
        self._jobs[job_id] = record
        return record

    def get(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            known = ", ".join(self._jobs) or "none submitted yet"
            raise UnknownJobError(
                f"unknown job {job_id!r}; available jobs: {known}"
            ) from None

    def cancel(self, job_id: str) -> JobRecord:
        record = self.get(job_id)
        if record.process is not None and record.process.exitcode is None:
            record.process.terminate()
            record.process.join(timeout=5.0)
            record.cancelled = True
        return record

    def shutdown(self) -> None:
        for record in self._jobs.values():
            if record.process is not None and record.process.exitcode is None:
                record.process.terminate()
                record.process.join(timeout=2.0)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, body = await _read_request(reader)
            await self._route(method, path, body, writer)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, OSError):
            pass  # the client hung up; there is no one to answer
        except UnknownJobError as exc:
            await _send_json(writer, 404, {"error": str(exc)})
        except ReproError as exc:
            await _send_json(writer, 400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            await _send_json(writer, 500, {"error": str(exc)})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass

    async def _route(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            await _send_json(writer, 200, {"status": "ok"})
        elif method == "POST" and parts == ["jobs"]:
            record = self.submit(body or {})
            await _send_json(writer, 201, record.to_json_dict())
        elif method == "GET" and parts == ["jobs"]:
            await _send_json(
                writer,
                200,
                {"jobs": [r.to_json_dict() for r in self._jobs.values()]},
            )
        elif method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            await _send_json(writer, 200, self.get(parts[1]).to_json_dict())
        elif (
            method == "GET"
            and len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "stream"
        ):
            await self._stream(self.get(parts[1]), writer)
        elif (
            method == "POST"
            and len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "cancel"
        ):
            await _send_json(writer, 200, self.cancel(parts[1]).to_json_dict())
        else:
            await _send_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _stream(
        self, record: JobRecord, writer: asyncio.StreamWriter
    ) -> None:
        """Follow a job's JSONL file until the job finishes."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        offset = 0
        while True:
            chunk, offset = _read_complete_lines(record.out_path, offset)
            if chunk:
                writer.write(chunk)
                await writer.drain()
            if record.status in ("done", "error", "cancelled"):
                chunk, offset = _read_complete_lines(record.out_path, offset)
                if chunk:
                    writer.write(chunk)
                    await writer.drain()
                break
            await asyncio.sleep(0.05)
        tail = json.dumps(
            {
                "event": "end",
                "job_id": record.job_id,
                "status": record.status,
                "rows_written": record.rows_written(),
            },
            sort_keys=True,
        )
        writer.write(tail.encode("utf-8") + b"\n")
        await writer.drain()


def _read_complete_lines(path: Path, offset: int) -> Tuple[bytes, int]:
    """New newline-terminated bytes past ``offset`` (skips partial rows)."""
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except OSError:
        return b"", offset
    end = data.rfind(b"\n")
    if end < 0:
        return b"", offset
    return data[: end + 1], offset + end + 1


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Optional[Dict[str, Any]]]:
    header_blob = await reader.readuntil(b"\r\n\r\n")
    if len(header_blob) > _MAX_REQUEST_BYTES:
        raise ConfigurationError("request headers too large")
    head = header_blob.decode("latin-1").split("\r\n")
    try:
        method, path, _version = head[0].split(" ", 2)
    except ValueError:
        raise ConfigurationError(f"malformed request line {head[0]!r}") from None
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            value = value.strip()
            if not (value.isascii() and value.isdigit()):
                raise ConfigurationError(
                    f"Content-Length must be a non-negative int, got {value!r}"
                )
            length = int(value)
    if length > _MAX_REQUEST_BYTES:
        raise ConfigurationError("request body too large")
    body: Optional[Dict[str, Any]] = None
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"request body is not JSON: {exc}") from None
    return method.upper(), path, body


async def _send_json(
    writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
) -> None:
    reasons = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found"}
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    writer.write(
        f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode("latin-1")
    )
    writer.write(body)
    await writer.drain()


async def _serve_async(app: ServeApp, host: str, port: int) -> None:
    server = await asyncio.start_server(app.handle, host, port)
    addr = server.sockets[0].getsockname()
    print(f"repro serve listening on http://{addr[0]}:{addr[1]}", flush=True)
    async with server:
        await server.serve_forever()


def serve_forever(*, host: str = "127.0.0.1", port: int = 8123, spool_dir: str) -> None:
    """Run the job service until interrupted (the ``repro serve`` body)."""
    app = ServeApp(spool_dir)
    try:
        asyncio.run(_serve_async(app, host, port))
    except KeyboardInterrupt:
        pass
    finally:
        app.shutdown()
