"""Cluster subsystem tests: protocol codecs, frame transport, the
orchestrator lease state machine, engine-level parity with the inline
backend, the worker/serve CLI surface, and the HTTP job service."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.cluster import protocol
from repro.cluster.orchestrator import Orchestrator
from repro.cluster.transport import MAX_FRAME_BYTES, FrameServer, connect
from repro.cluster.worker import Worker, default_worker_id
from repro.errors import ClusterError, ConfigurationError, ProtocolError
from repro.runner import SweepEngine, SweepSpec
from repro.runner.results import CellResult
from repro.runner.spec import CellSpec
from repro.store import reset_default_store


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        topologies=("grid",),
        ns=(9, 16),
        modes=("uniform", "global"),
        alphas=(3.0,),
        betas=(1.0,),
        seeds=2,
    )
    base.update(overrides)
    return SweepSpec(**base)


def canonical_rows(path):
    """JSONL rows with timing zeroed — the repo's byte-identity idiom."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record["wall_time_s"] = 0.0
            rows.append(json.dumps(record, sort_keys=True))
    return rows


def run_engine_with_workers(engine: SweepEngine, num_workers: int):
    """Drive a cluster engine with in-process worker threads."""
    report_box = {}

    def run():
        report_box["report"] = engine.run()

    engine_thread = threading.Thread(target=run)
    engine_thread.start()
    host, port = protocol.parse_address(engine.cluster)
    workers = [
        Worker(host, port, worker_id=f"test-w{i}") for i in range(num_workers)
    ]
    threads = [threading.Thread(target=w.run) for w in workers]
    for t in threads:
        t.start()
    engine_thread.join(timeout=90)
    assert not engine_thread.is_alive(), "cluster engine did not finish"
    for t in threads:
        t.join(timeout=10)
    return report_box["report"], workers


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_make_and_validate_roundtrip(self):
        msg = protocol.make_message("hello", worker_id="w1")
        assert protocol.validate_message(msg) is msg
        assert msg["schema"] == protocol.PROTOCOL_SCHEMA_VERSION

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="valid types"):
            protocol.make_message("teleport")
        bad = {"type": "teleport", "schema": protocol.PROTOCOL_SCHEMA_VERSION}
        with pytest.raises(ProtocolError, match="valid types"):
            protocol.validate_message(bad)

    def test_schema_version_mismatch_rejected(self):
        msg = protocol.make_message("hello")
        msg["schema"] = protocol.PROTOCOL_SCHEMA_VERSION + 1
        with pytest.raises(ProtocolError, match="schema mismatch"):
            protocol.validate_message(msg)

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.validate_message(["hello"])

    def test_cell_codec_roundtrip_preserves_measure_tuple(self):
        cell = CellSpec(
            topology="grid", n=9, mode="uniform", alpha=3.0, beta=1.0,
            seed=0, measure=("schedule", "g1"),
        )
        # Through JSON, tuples become lists; decode restores them.
        wire = json.loads(json.dumps(protocol.encode_cell(cell)))
        assert protocol.decode_cell(wire) == cell

    def test_malformed_cell_rejected(self):
        with pytest.raises(ProtocolError, match="malformed lease cell"):
            protocol.decode_cell({"topology": "grid", "n": 9, "bogus": 1})
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_cell([1, 2])
        with pytest.raises(ProtocolError, match="malformed lease cell"):
            protocol.decode_cell({"measure": 5})

    def test_result_codec_roundtrip(self):
        result = CellResult(
            cell_id="c1", topology="grid", n=9, mode="uniform",
            alpha=3.0, beta=1.0, seed=0, slots=7, status="ok",
        )
        wire = json.loads(json.dumps(protocol.encode_result(result)))
        decoded = protocol.decode_result(wire)
        assert decoded.to_json_dict() == result.to_json_dict()

    def test_parse_address(self):
        assert protocol.parse_address("localhost:99") == ("localhost", 99)
        assert protocol.parse_address("10.0.0.1:8123") == ("10.0.0.1", 8123)
        for bad in ("nocolon", "host:", "host:abc", ":99", "host:70000"):
            with pytest.raises(ConfigurationError):
                protocol.parse_address(bad)


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
def echo_handler(conn, peer):
    with conn:
        try:
            while True:
                message = conn.recv(timeout=5.0)
                conn.send(message)
        except ClusterError:
            return


class TestTransport:
    def test_request_roundtrip_over_loopback(self):
        with FrameServer(echo_handler) as server:
            host, port = server.address
            with connect(host, port) as conn:
                msg = protocol.make_message("heartbeat", worker_id="w")
                assert conn.request(msg, timeout=5.0) == msg

    def test_multiple_connections_share_one_server(self):
        with FrameServer(echo_handler) as server:
            host, port = server.address
            conns = [connect(host, port) for _ in range(3)]
            try:
                for index, conn in enumerate(conns):
                    msg = protocol.make_message("hello", worker_id=f"w{index}")
                    assert conn.request(msg)["worker_id"] == f"w{index}"
            finally:
                for conn in conns:
                    conn.close()

    def test_oversized_outgoing_frame_rejected(self):
        with FrameServer(echo_handler) as server:
            host, port = server.address
            with connect(host, port) as conn:
                huge = protocol.make_message(
                    "result", blob="x" * (MAX_FRAME_BYTES + 1)
                )
                with pytest.raises(ProtocolError, match="frame limit"):
                    conn.send(huge)

    def test_recv_timeout_raises_cluster_error(self):
        def silent_handler(conn, peer):
            with conn:
                time.sleep(2.0)

        with FrameServer(silent_handler) as server:
            host, port = server.address
            with connect(host, port) as conn:
                with pytest.raises(ClusterError, match="timed out"):
                    conn.recv(timeout=0.2)

    def test_connect_refused_raises_after_backoff(self):
        port = free_port()  # nothing is listening there
        start = time.monotonic()
        with pytest.raises(ClusterError, match="cannot reach cluster peer"):
            connect("127.0.0.1", port, retries=2, backoff_s=0.01)
        assert time.monotonic() - start < 5.0


# ----------------------------------------------------------------------
# Orchestrator lease state machine (driven over the real wire)
# ----------------------------------------------------------------------
def dial(orchestrator: Orchestrator):
    host, port = orchestrator.address
    return connect(host, port)


def say_hello(conn, worker_id="wA"):
    return conn.request(
        protocol.make_message("hello", worker_id=worker_id), timeout=5.0
    )


def request_lease(conn, worker_id="wA"):
    return conn.request(
        protocol.make_message("lease_request", worker_id=worker_id), timeout=5.0
    )


def result_for(cell: CellSpec) -> CellResult:
    return CellResult(
        cell_id=cell.cell_id, topology=cell.topology, n=cell.n,
        mode=cell.mode, alpha=cell.alpha, beta=cell.beta, seed=cell.seed,
        slots=5, status="ok",
    )


def send_result(conn, cell, *, worker_id="wA", lease_id=None):
    return conn.request(
        protocol.make_message(
            "result",
            worker_id=worker_id,
            lease_id=lease_id,
            result=protocol.encode_result(result_for(cell)),
            store_stats={"deploy": {"builds": 1}},
        ),
        timeout=5.0,
    )


class TestOrchestrator:
    def cells(self, count=6):
        return [
            CellSpec(
                topology="grid", n=9, mode="uniform", alpha=3.0, beta=1.0,
                seed=seed,
            )
            for seed in range(count)
        ]

    def test_empty_sweep_is_done_immediately(self):
        with Orchestrator([]) as orchestrator:
            assert orchestrator.wait(timeout=1.0) == {}

    def test_hello_welcome_carries_config(self):
        with Orchestrator(self.cells(), lease_ttl_s=9.0, batch_size=2) as orch:
            with dial(orch) as conn:
                welcome = say_hello(conn)
                assert welcome["type"] == "welcome"
                assert welcome["lease_ttl_s"] == 9.0
                assert welcome["batch_size"] == 2
                assert welcome["total_cells"] == 6

    def test_default_heartbeat_leaves_two_beats_of_margin(self):
        # The advertised cadence is a third of the TTL (as documented):
        # a worker that misses one beat still has two full heartbeat
        # intervals before its lease expires.
        with Orchestrator(self.cells(), lease_ttl_s=9.0) as orch:
            interval = orch.heartbeat_interval_s
            assert interval == pytest.approx(9.0 / 3.0)
            assert orch.lease_ttl_s - 2 * interval >= interval

    def test_explicit_heartbeat_interval_wins(self):
        with Orchestrator(self.cells(), lease_ttl_s=9.0, heartbeat_interval_s=1.5) as orch:
            assert orch.heartbeat_interval_s == 1.5

    def test_lease_result_shutdown_flow(self):
        cells = self.cells(3)
        with Orchestrator(cells, batch_size=2) as orch:
            with dial(orch) as conn:
                say_hello(conn)
                lease = request_lease(conn)
                assert lease["type"] == "lease"
                assert [c["seed"] for c in lease["cells"]] == [0, 1]
                for data in lease["cells"]:
                    ack = send_result(
                        conn, protocol.decode_cell(data),
                        lease_id=lease["lease_id"],
                    )
                    assert ack["type"] == "result_ack"
                    assert ack["duplicate"] is False
                second = request_lease(conn)
                assert second["type"] == "lease"
                send_result(
                    conn, protocol.decode_cell(second["cells"][0]),
                    lease_id=second["lease_id"],
                )
                assert request_lease(conn)["type"] == "shutdown"
            results = orch.wait(timeout=5.0)
            assert sorted(results) == sorted(c.cell_id for c in cells)
            assert orch.stats.results_accepted == 3
            assert orch.stats.store_stats["deploy"]["builds"] == 3

    def test_all_leased_out_reports_idle(self):
        with Orchestrator(self.cells(2), batch_size=2) as orch:
            with dial(orch) as conn:
                request_lease(conn, worker_id="wA")
                idle = request_lease(conn, worker_id="wB")
                assert idle["type"] == "idle"
                assert idle["retry_after_s"] > 0

    def test_expired_lease_reassigned_to_live_worker(self):
        with Orchestrator(self.cells(2), lease_ttl_s=0.2, batch_size=2) as orch:
            with dial(orch) as conn:
                first = request_lease(conn, worker_id="dead")
                assert first["type"] == "lease"
                time.sleep(0.4)  # let the lease lapse, no heartbeat
                second = request_lease(conn, worker_id="alive")
                assert second["type"] == "lease"
                assert second["cells"] == first["cells"]
            assert orch.stats.reassignments == 2

    def test_heartbeat_renews_leases(self):
        with Orchestrator(self.cells(2), lease_ttl_s=0.4, batch_size=2) as orch:
            with dial(orch) as conn:
                request_lease(conn, worker_id="wA")
                for _ in range(4):
                    time.sleep(0.2)
                    ack = conn.request(
                        protocol.make_message("heartbeat", worker_id="wA"),
                        timeout=5.0,
                    )
                    assert ack["type"] == "heartbeat_ack"
                    assert ack["leases_renewed"] == 1
                # Twice the TTL has passed, but the heartbeats kept the
                # lease alive: another worker sees no pending cells.
                assert request_lease(conn, worker_id="wB")["type"] == "idle"
            assert orch.stats.reassignments == 0

    def test_goodbye_releases_cells(self):
        with Orchestrator(self.cells(2), batch_size=2) as orch:
            with dial(orch) as conn:
                request_lease(conn, worker_id="wA")
                assert (
                    conn.request(
                        protocol.make_message("goodbye", worker_id="wA"),
                        timeout=5.0,
                    )["type"]
                    == "goodbye_ack"
                )
            with dial(orch) as conn:
                # The departed worker's batch is immediately leasable.
                assert request_lease(conn, worker_id="wB")["type"] == "lease"

    def test_result_for_unknown_cell_is_an_error_reply(self):
        with Orchestrator(self.cells(1)) as orch:
            with dial(orch) as conn:
                stray = CellSpec(
                    topology="grid", n=25, mode="uniform", alpha=3.0,
                    beta=1.0, seed=77,
                )
                reply = send_result(conn, stray)
                assert reply["type"] == "error"
                assert "unknown cell" in reply["detail"]

    def test_wait_timeout_raises(self):
        with Orchestrator(self.cells(1)) as orch:
            with pytest.raises(ClusterError, match="timed out"):
                orch.wait(timeout=0.2)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError, match="lease_ttl_s"):
            Orchestrator([], lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError, match="batch_size"):
            Orchestrator([], batch_size=0)

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"lease_ttl_s": float("nan")}, "lease_ttl_s"),
            ({"lease_ttl_s": float("inf")}, "lease_ttl_s"),
            ({"heartbeat_interval_s": float("nan")}, "heartbeat_interval_s"),
            ({"heartbeat_interval_s": 0.0}, "heartbeat_interval_s"),
            ({"batch_size": 2.5}, "batch_size"),
            ({"batch_size": True}, "batch_size"),
            ({"batch_size": float("nan")}, "batch_size"),
        ],
        ids=["ttl-nan", "ttl-inf", "heartbeat-nan", "heartbeat-0", "batch-2.5",
             "batch-true", "batch-nan"],
    )
    def test_non_finite_or_fractional_settings_rejected(self, options, match):
        """A NaN deadline never expires and a NaN batch dies later as a
        bare ValueError: both are refused before the socket is bound."""
        with pytest.raises(ConfigurationError, match=match):
            Orchestrator(self.cells(), **options)


class TestResultFrameValidation:
    """Malformed ``result`` frames, driven through ``_dispatch`` without
    a connection: the reply is ``error`` and nothing changes, so the
    worker's honest retry is still accepted and the sweep completes."""

    @pytest.fixture
    def orch(self):
        cells = TestOrchestrator().cells(2)
        accepted = []
        orch = Orchestrator(
            cells, batch_size=2, on_result=lambda cid, r: accepted.append(cid)
        )
        orch.accepted = accepted
        yield orch
        orch._server.stop()

    @staticmethod
    def frame(cell, *, lease_id, store_stats=None, **result_overrides):
        result = dict(protocol.encode_result(result_for(cell)), **result_overrides)
        return protocol.make_message(
            "result", worker_id="wA", lease_id=lease_id, result=result,
            store_stats=store_stats,
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"store_stats": {"deploy": 5}},
            {"store_stats": {"deploy": {"builds": "1"}}},
            {"store_stats": {"deploy": {"builds": True}}},
            {"store_stats": [1]},
            {"cell_id": ["grid", 9]},
            {"cell_id": 7},
        ],
        ids=[
            "stats-not-mapping", "stats-str-count", "stats-bool-count",
            "stats-list", "cell-id-list", "cell-id-int",
        ],
    )
    def test_malformed_result_changes_nothing(self, orch, bad):
        lease = orch._dispatch(
            protocol.make_message("lease_request", worker_id="wA")
        )
        assert lease["type"] == "lease"
        cells = [protocol.decode_cell(c) for c in lease["cells"]]
        leases_before = dict(orch._leases)

        reply = orch._dispatch(self.frame(cells[0], lease_id=lease["lease_id"], **bad))
        assert reply["type"] == "error"
        assert "malformed" in reply["detail"] or "store_stats" in reply["detail"]
        assert orch._results == {}
        assert orch.accepted == []
        assert orch.stats.results_accepted == 0
        assert orch.stats.store_stats == {}
        assert orch._leases == leases_before
        assert not orch._done.is_set()

        for cell in cells:
            ack = orch._dispatch(
                self.frame(
                    cell, lease_id=lease["lease_id"],
                    store_stats={"deploy": {"builds": 1}},
                )
            )
            assert ack == protocol.make_message(
                "result_ack", cell_id=cell.cell_id, duplicate=False
            )
        assert orch.accepted == [c.cell_id for c in cells]
        assert orch.stats.store_stats["deploy"]["builds"] == 2
        assert sorted(orch.wait(timeout=1.0)) == sorted(c.cell_id for c in cells)


# ----------------------------------------------------------------------
# Engine-level cluster backend
# ----------------------------------------------------------------------
class TestClusterEngine:
    @pytest.mark.parametrize(
        "options, match",
        [
            ({"cluster": "nocolon"}, "HOST:PORT"),
            ({"cluster": "127.0.0.1:0", "cluster_batch": 0}, "batch_size"),
            ({"cluster": "127.0.0.1:0", "lease_ttl_s": 0}, "lease_ttl_s"),
        ],
        ids=["address", "batch", "lease-ttl"],
    )
    def test_bad_cluster_address_fails_at_construction(self, tmp_path, options, match):
        out = tmp_path / "rows.jsonl"
        out.write_text('{"cell_id": "kept"}\n')
        with pytest.raises(ConfigurationError, match=match):
            SweepEngine(small_spec(), out_path=out, resume=False, **options).run()
        assert out.read_text() == '{"cell_id": "kept"}\n'

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"lease_ttl_s": float("nan")}, "lease_ttl_s"),
            ({"lease_ttl_s": float("inf")}, "lease_ttl_s"),
            ({"cluster_batch": 2.5}, "batch_size"),
            ({"cluster_batch": True}, "batch_size"),
            ({"cluster_batch": float("nan")}, "batch_size"),
        ],
        ids=["ttl-nan", "ttl-inf", "batch-2.5", "batch-true", "batch-nan"],
    )
    def test_non_finite_lease_options_fail_at_construction(self, options, match):
        with pytest.raises(ConfigurationError, match=match):
            SweepEngine(small_spec(), cluster="127.0.0.1:0", **options)

    def test_cli_nan_lease_ttl_exits_2_and_keeps_the_out_file(self, tmp_path, capsys):
        """``repro sweep --lease-ttl nan`` is refused before the out file
        is opened.  ``main`` runs in a thread: a NaN lease check that
        passes would leave the orchestrator waiting for workers."""
        from repro.cli import main

        out = tmp_path / "rows.jsonl"
        out.write_text('{"cell_id": "kept"}\n')
        box = {}
        thread = threading.Thread(
            target=lambda: box.update(code=main([
                "sweep", "--topology", "grid", "--n", "9", "--mode", "uniform",
                "--cluster", "127.0.0.1:0", "--lease-ttl", "nan",
                "--out", str(out),
            ])),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=30)
        assert box.get("code") == 2
        assert "lease_ttl_s" in capsys.readouterr().err
        assert out.read_text() == '{"cell_id": "kept"}\n'

    def test_cluster_sweep_matches_inline_byte_for_byte(self, tmp_path):
        spec = small_spec()
        inline_path = tmp_path / "inline.jsonl"
        cluster_path = tmp_path / "cluster.jsonl"
        SweepEngine(spec, out_path=inline_path).run()

        engine = SweepEngine(
            spec,
            out_path=cluster_path,
            cluster=f"127.0.0.1:{free_port()}",
            cluster_batch=3,
            lease_ttl_s=10.0,
        )
        report, workers = run_engine_with_workers(engine, 2)

        assert canonical_rows(inline_path) == canonical_rows(cluster_path)
        assert report.executed == spec.num_cells
        stats = report.cluster_stats
        assert stats["results_accepted"] == spec.num_cells
        assert stats["workers"] == ["test-w0", "test-w1"]
        assert sum(w.cells_completed for w in workers) == spec.num_cells

    def test_cluster_resume_skips_recorded_cells(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "sweep.jsonl"
        first = SweepEngine(spec, out_path=path).run()
        assert first.executed == spec.num_cells
        engine = SweepEngine(
            spec, out_path=path, cluster=f"127.0.0.1:{free_port()}"
        )
        # Everything is resumed: the orchestrator never has pending
        # cells, so no workers are needed at all.
        report = engine.run()
        assert report.executed == 0
        assert report.skipped == spec.num_cells
        assert report.cluster_stats is None

    def test_cold_cluster_store_stats_match_inline(self, tmp_path):
        # Each worker reports per-cell deltas with all-zero stages
        # dropped; on a cold default store their sum must still equal
        # the inline sweep's counters exactly.
        spec = small_spec()
        reset_default_store()
        try:
            inline = SweepEngine(spec, out_path=tmp_path / "inline.jsonl").run()
            reset_default_store()
            engine = SweepEngine(
                spec,
                out_path=tmp_path / "cluster.jsonl",
                cluster=f"127.0.0.1:{free_port()}",
            )
            report, _ = run_engine_with_workers(engine, 1)
        finally:
            reset_default_store()
        assert inline.store_stats["deploy"]["builds"] > 0
        assert report.cluster_stats["store_stats"] == report.store_stats
        assert report.store_stats == inline.store_stats

    def test_error_cells_are_isolated_rows(self, tmp_path):
        # exponential_line overflows IEEE doubles far below n=1100, so
        # every cell becomes a status=error row streamed back like any
        # other result — error isolation survives the wire.
        spec = small_spec(
            topologies=("exponential",), ns=(1100,), modes=("global",), seeds=1
        )
        engine = SweepEngine(
            spec,
            out_path=tmp_path / "err.jsonl",
            cluster=f"127.0.0.1:{free_port()}",
        )
        report, _ = run_engine_with_workers(engine, 1)
        assert report.failed == spec.num_cells
        rows = canonical_rows(tmp_path / "err.jsonl")
        assert all('"status": "error"' in row for row in rows)


# ----------------------------------------------------------------------
# Worker behaviour
# ----------------------------------------------------------------------
class TestWorker:
    def test_default_worker_id_is_per_process(self):
        assert default_worker_id() == default_worker_id()
        assert "-" in default_worker_id()

    def test_worker_gives_up_when_orchestrator_never_appears(self):
        worker = Worker(
            "127.0.0.1", free_port(), connect_retries=1, connect_backoff_s=0.01
        )
        with pytest.raises(ClusterError, match="cannot reach cluster peer"):
            worker.run()

    def test_worker_exits_cleanly_when_orchestrator_stops_midway(self):
        orchestrator = Orchestrator(
            [
                CellSpec(
                    topology="grid", n=9, mode="uniform", alpha=3.0,
                    beta=1.0, seed=0,
                )
            ]
        ).start()
        host, port = orchestrator.address
        worker = Worker(host, port, worker_id="wX")

        def stop_soon():
            time.sleep(0.3)
            orchestrator._server.stop()

        killer = threading.Thread(target=stop_soon)
        killer.start()
        thread = threading.Thread(target=worker.run)
        thread.start()
        thread.join(timeout=30)
        killer.join()
        assert not thread.is_alive(), "worker hung after orchestrator death"


# ----------------------------------------------------------------------
# The serve front-end
# ----------------------------------------------------------------------
@pytest.fixture
def serve_app(tmp_path):
    from repro.cluster.serve import ServeApp

    app = ServeApp(str(tmp_path / "spool"))
    yield app
    app.shutdown()


def wait_for_status(record, wanted, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if record.status in wanted:
            return record.status
        time.sleep(0.1)
    raise AssertionError(f"job stuck in {record.status!r}")


SERVE_SPEC = {
    "topologies": ["grid"],
    "ns": [9],
    "modes": ["uniform"],
    "alphas": [3.0],
    "betas": [1.0],
    "seeds": 2,
}


class TestServeApp:
    def test_submit_runs_job_to_done(self, serve_app):
        record = serve_app.submit(dict(SERVE_SPEC))
        assert record.job_id == "job-0001"
        assert wait_for_status(record, {"done", "error"}) == "done"
        assert record.rows_written() == record.total_cells == 2
        summary = record.to_json_dict()
        assert summary["status"] == "done"
        assert summary["rows_written"] == 2

    def test_unknown_job_lists_available(self, serve_app):
        with pytest.raises(ConfigurationError, match="available jobs"):
            serve_app.get("job-9999")

    def test_invalid_spec_rejected_before_spawn(self, serve_app):
        with pytest.raises(ConfigurationError):
            serve_app.submit({"bogus_axis": [1]})

    def test_cancel_terminates_running_job(self, serve_app):
        big = dict(SERVE_SPEC, ns=[100, 144, 196], seeds=10)
        record = serve_app.submit(big)
        wait_for_status(record, {"running", "done"})
        serve_app.cancel(record.job_id)
        assert wait_for_status(record, {"cancelled", "done"}) in (
            "cancelled",
            "done",
        )


def post_jobs(body) -> bytes:
    """A raw ``POST /jobs`` request; a str body is sent verbatim."""
    raw = (body if isinstance(body, str) else json.dumps(body)).encode()
    return b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(raw), raw)


class TestServeHttp:
    @pytest.fixture
    def server_url(self, tmp_path):
        import asyncio

        from repro.cluster.serve import ServeApp

        app = ServeApp(str(tmp_path / "spool"))
        port = free_port()
        loop = asyncio.new_event_loop()
        started = threading.Event()

        async def main():
            server = await asyncio.start_server(app.handle, "127.0.0.1", port)
            started.set()
            async with server:
                await server.serve_forever()

        def run_loop():
            try:
                loop.run_until_complete(main())
            except RuntimeError:
                pass  # loop.stop() interrupts serve_forever at teardown

        thread = threading.Thread(target=run_loop, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        yield f"http://127.0.0.1:{port}"
        loop.call_soon_threadsafe(loop.stop)
        app.shutdown()

    def http(self, url, data=None):
        request = urllib.request.Request(
            url,
            data=json.dumps(data).encode() if data is not None else None,
            method="POST" if data is not None else "GET",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read().decode()

    def test_health_submit_status_stream(self, server_url):
        status, body = self.http(f"{server_url}/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}

        status, body = self.http(f"{server_url}/jobs", data=SERVE_SPEC)
        assert status == 201
        job_id = json.loads(body)["job_id"]

        # The stream endpoint follows the job to completion: two result
        # rows then the end event.
        status, body = self.http(f"{server_url}/jobs/{job_id}/stream")
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert status == 200
        assert lines[-1]["event"] == "end"
        assert lines[-1]["status"] == "done"
        rows = lines[:-1]
        assert len(rows) == 2
        assert all(row["status"] == "ok" for row in rows)

        status, body = self.http(f"{server_url}/jobs/{job_id}")
        assert json.loads(body)["status"] == "done"

        status, body = self.http(f"{server_url}/jobs")
        assert [j["job_id"] for j in json.loads(body)["jobs"]] == [job_id]

    def test_unknown_route_and_job_are_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            self.http(f"{server_url}/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            self.http(f"{server_url}/jobs/job-9999")
        assert err.value.code == 404

    @pytest.mark.parametrize(
        "request_bytes, fragment",
        [
            (post_jobs(dict(SERVE_SPEC, topologies=["nowhere"])), "nowhere"),
            (post_jobs({"topologies": ["grid"]}), "['ns', 'modes']"),
            (post_jobs(dict(SERVE_SPEC, jobs="two")), "jobs"),
            (post_jobs(dict(SERVE_SPEC, jobs=0)), "jobs"),
            (post_jobs(dict(SERVE_SPEC, cluster="nohost")), "HOST:PORT"),
            (post_jobs(dict(SERVE_SPEC, cluster="host:port")), "port"),
            (post_jobs("{not json"), "not JSON"),
            (post_jobs(dict(SERVE_SPEC, seeds="x")), "seeds"),
            (post_jobs(dict(SERVE_SPEC, seeds=1.5)), "seeds"),
            (post_jobs(dict(SERVE_SPEC, base_seed="x")), "base_seed"),
            (post_jobs(dict(SERVE_SPEC, alphas=["a"])), "alphas"),
            (post_jobs(dict(SERVE_SPEC, topologies=[["a"]])), "topologies"),
            (post_jobs(dict(SERVE_SPEC, ns=None)), "ns"),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", "Content-Length"),
        ],
        ids=[
            "unknown-topology",
            "missing-fields",
            "jobs-not-int",
            "jobs-zero",
            "cluster-no-port",
            "cluster-bad-port",
            "body-not-json",
            "seeds-not-int",
            "seeds-fractional",
            "base-seed-not-int",
            "alphas-not-numbers",
            "topologies-not-names",
            "ns-null",
            "bad-content-length",
        ],
    )
    def test_bad_request_is_400_and_spawns_nothing(
        self, server_url, request_bytes, fragment
    ):
        host, port = server_url[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(request_bytes)
            sock.shutdown(socket.SHUT_WR)
            reply = b"".join(iter(lambda: sock.recv(65536), b""))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert fragment in json.loads(body)["error"]
        _, listing = self.http(f"{server_url}/jobs")
        assert json.loads(listing) == {"jobs": []}


# ----------------------------------------------------------------------
# CLI + API surface
# ----------------------------------------------------------------------
class TestCliSurface:
    def test_worker_and_serve_subcommands_exist(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "worker" in out and "serve" in out

    def test_sweep_cluster_flags_exist(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--cluster" in out and "--lease-ttl" in out

    def test_worker_bad_address_exits_2(self, capsys):
        from repro.cli import main

        assert main(["worker", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_unreachable_orchestrator_exits_2(self, capsys, monkeypatch):
        import repro.cluster as cluster_pkg
        from repro.cli import main

        real_worker = cluster_pkg.Worker

        def impatient_worker(host, port, **kwargs):
            # The CLI default backoff budget is ~25s; shrink it so the
            # failure path stays fast under test.
            kwargs.update(connect_retries=1, connect_backoff_s=0.01)
            return real_worker(host, port, **kwargs)

        monkeypatch.setattr(cluster_pkg, "Worker", impatient_worker)
        # Bind-then-release: nothing listens there, so the worker's
        # backoff budget runs out and the CLI maps it to exit 2.
        assert main(["worker", f"127.0.0.1:{free_port()}"]) == 2
        assert "cannot reach" in capsys.readouterr().err


class TestApiSurface:
    def test_cluster_exports(self):
        assert repro.Orchestrator is Orchestrator
        assert repro.Worker is Worker
        assert issubclass(repro.ClusterError, repro.ReproError)
        assert issubclass(repro.ProtocolError, repro.ClusterError)
        from repro import api

        assert api.Orchestrator is Orchestrator
