"""Fault injection for the distributed sweep backend.

Two failure modes the lease protocol must absorb:

* a worker SIGKILLed mid-sweep — its leased cells must flow back to
  ``pending`` on TTL expiry and be completed by a surviving worker, with
  the final JSONL byte-identical (modulo timing) to an inline run;
* duplicate RESULT delivery — at-least-once delivery means a slow
  worker can report a cell the orchestrator already accepted; the
  duplicate must be acknowledged and dropped, never double-recorded.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.cluster.orchestrator as orchestrator_module
from repro.cluster import Orchestrator, connect, protocol
from repro.runner import SweepEngine, SweepSpec
from repro.runner.results import CellResult

SRC = str(Path(__file__).resolve().parent.parent / "src")

# ~0.1-0.2s per cell: slow enough that a SIGKILL lands mid-lease, fast
# enough that the whole fault scenario stays a few seconds.
FAULT_SPEC = SweepSpec(
    topologies=("grid",),
    ns=(100, 144),
    modes=("uniform", "global"),
    alphas=(3.0,),
    betas=(1.0,),
    seeds=3,
    num_frames=200,
)


def canonical_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record["wall_time_s"] = 0.0
            rows.append(json.dumps(record, sort_keys=True))
    return rows


def free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn_worker(address: str) -> subprocess.Popen:
    """A real ``repro worker`` OS process (so SIGKILL is a real SIGKILL)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", address],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def cells_leased_to(orchestrator: Orchestrator, pid: int) -> int:
    """Cells the orchestrator's lease table holds for the worker process
    ``pid`` (worker ids end in ``-<pid>``); a cell leaves the table when
    its result is accepted."""
    with orchestrator._lock:
        return sum(
            len(lease.cell_ids)
            for lease in orchestrator._leases.values()
            if lease.worker_id.endswith(f"-{pid}")
        )


class TestWorkerDeath:
    def test_sigkill_mid_sweep_reassigns_and_matches_inline(self, tmp_path, monkeypatch):
        orchestrators = []

        class Recorded(Orchestrator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                orchestrators.append(self)

        monkeypatch.setattr(orchestrator_module, "Orchestrator", Recorded)
        inline_path = tmp_path / "inline.jsonl"
        SweepEngine(FAULT_SPEC, out_path=inline_path).run()

        cluster_path = tmp_path / "cluster.jsonl"
        port = free_port()
        engine = SweepEngine(
            FAULT_SPEC,
            out_path=cluster_path,
            cluster=f"127.0.0.1:{port}",
            cluster_batch=3,
            lease_ttl_s=1.0,
        )
        report_box = {}
        engine_thread = threading.Thread(
            target=lambda: report_box.update(report=engine.run())
        )
        engine_thread.start()

        victim = spawn_worker(f"127.0.0.1:{port}")
        survivor = None
        try:
            # Kill the victim only while it holds cells it will never
            # finish.  Frozen by SIGSTOP it sends nothing more, but a
            # result already on the wire may still retire one cell, so at
            # least two must be leased to it for one to come back.
            deadline = time.monotonic() + 60
            while True:
                if time.monotonic() > deadline:
                    pytest.fail("victim worker never held two leased cells")
                if orchestrators and cells_leased_to(orchestrators[0], victim.pid) >= 2:
                    victim.send_signal(signal.SIGSTOP)
                    os.waitpid(victim.pid, os.WUNTRACED)  # returns once it is stopped
                    if cells_leased_to(orchestrators[0], victim.pid) >= 2:
                        break
                    victim.send_signal(signal.SIGCONT)
                time.sleep(0.005)
            victim.kill()  # SIGKILL: no goodbye, no lease release
            victim.wait(timeout=10)

            survivor = spawn_worker(f"127.0.0.1:{port}")
            engine_thread.join(timeout=180)
            assert not engine_thread.is_alive(), "sweep never completed"
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)

        report = report_box["report"]
        stats = report.cluster_stats
        assert report.executed == FAULT_SPEC.num_cells
        assert stats["results_accepted"] == FAULT_SPEC.num_cells
        # The victim's unfinished lease came back via TTL expiry.
        assert stats["reassignments"] >= 1
        assert len(stats["workers"]) == 2
        # Byte-identical recovery: the file a crashed-worker sweep leaves
        # behind is indistinguishable from a healthy inline run.
        assert canonical_rows(cluster_path) == canonical_rows(inline_path)


class TestDuplicateDelivery:
    def cells(self):
        return list(
            SweepSpec(
                topologies=("grid",), ns=(9,), modes=("uniform",), seeds=2
            ).cells()
        )

    def result_for(self, cell) -> CellResult:
        return CellResult(
            cell_id=cell.cell_id, topology=cell.topology, n=cell.n,
            mode=cell.mode, alpha=cell.alpha, beta=cell.beta, seed=cell.seed,
            slots=5, status="ok",
        )

    def test_duplicate_result_is_acked_and_dropped(self):
        cells = self.cells()
        accepted = []
        orchestrator = Orchestrator(
            cells,
            on_result=lambda cid, result: accepted.append(cid),
            batch_size=2,
        )
        with orchestrator:
            host, port = orchestrator.address
            with connect(host, port) as conn:
                conn.request(
                    protocol.make_message("hello", worker_id="wA"), timeout=5.0
                )
                lease = conn.request(
                    protocol.make_message("lease_request", worker_id="wA"),
                    timeout=5.0,
                )
                assert lease["type"] == "lease"
                for cell_data in lease["cells"]:
                    cell = protocol.decode_cell(cell_data)
                    message = protocol.make_message(
                        "result",
                        worker_id="wA",
                        lease_id=lease["lease_id"],
                        result=protocol.encode_result(self.result_for(cell)),
                        store_stats={},
                    )
                    first = conn.request(message, timeout=5.0)
                    second = conn.request(message, timeout=5.0)  # redelivery
                    assert first["duplicate"] is False
                    assert second["duplicate"] is True
            results = orchestrator.wait(timeout=5.0)
        # First-result-wins: each cell recorded exactly once, in spite of
        # every result having been delivered twice.
        assert sorted(accepted) == sorted(c.cell_id for c in cells)
        assert len(results) == len(cells)
        assert orchestrator.stats.duplicate_results == len(cells)
        assert orchestrator.stats.results_accepted == len(cells)
