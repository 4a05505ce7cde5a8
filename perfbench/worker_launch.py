"""Run one cluster worker under the benchmark's observers.

Started by the ``cluster-sweep`` workload as
``python3 perfbench/worker_launch.py --port P --trace 0|1 --out FILE``.
It installs the same always-on observers as the main process (schedule
builds, simulations), wraps ``repro.runner.engine.run_cell`` -- the
worker's per-cell entry point -- to probe host speed and time each cell,
and with ``--trace 1`` also wraps ``protocol.encode_result`` and
``FrameConnection.request`` plus every layer entry point.  When the
orchestrator says ``shutdown`` the launcher re-verifies the schedules it
built and writes one JSON record (cells, probes, span summary, counters,
partitions, failures, ``ru_maxrss``) to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hooks import Recorder  # noqa: E402
from workloads import Observations, install_layer_spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import repro.cluster.protocol as protocol
    import repro.runner.engine as engine
    from repro.cluster.transport import FrameConnection
    from repro.cluster.worker import Worker

    rec = Recorder()
    obs = Observations(rec)
    obs.install()
    cells = []

    def timed_cell(fn, call_args, kwargs):
        rec.probe()
        rec.current = call_args[0].cell_id
        start = time.perf_counter()
        with rec.maybe_span("cluster.execute"):
            result = fn(*call_args, **kwargs)
        cells.append((rec.current, start, time.perf_counter()))
        return result

    rec.wrap(engine, "run_cell", None, timed_cell)
    if args.trace:
        install_layer_spans(rec)
        rec.wrap(protocol, "encode_result", "cluster.encode", traced=True)
        rec.wrap(FrameConnection, "request", "cluster.request", traced=True)
        rec.tracing = True
    try:
        Worker("127.0.0.1", args.port).run()
    finally:
        rec.tracing = False
        rec.untrace()
        failures = obs.verify()
        record = {
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cells": cells,
            "probes": rec.probes,
            "summary": rec.summary(),
            "counts": rec.counters,
            "counters": obs.counters(),
            "partitions": obs.partitions(),
            "links": obs.link_counts(),
            "latencies": obs.latencies(),
            "failures": {str(k): v for k, v in failures.items()},
        }
        Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
