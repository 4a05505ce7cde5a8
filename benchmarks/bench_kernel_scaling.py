"""KERNEL — the cached/chunked interference kernel layer at scale.

Two engineering claims behind every scaling experiment in this repo:

* **Block queries**: repeated feasibility / additive queries against
  one link set run >= 5x faster than the seed's dense-rebuild path at
  n >= 2000 links (the kernel cache computes only the ``rows x cols``
  entries each query asks for, never an ``n x n`` matrix).
* **Chunking**: a 10k-link network schedules end to end with chunked
  kernels without ever allocating a dense n x n float64 matrix — the
  memory ceiling is the block size, not the network size (the build's
  tracemalloc peak stays below one such matrix).
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.links.linkset import LinkSet
from repro.scheduling.builder import ScheduleBuilder
from repro.sinr.affectance import additive_interference
from repro.sinr.feasibility import is_feasible_with_power

N_QUERY = 2000
N_LARGE = 10_000
MIN_SPEEDUP = 5.0


def _random_links(n: int, rng: int, *, spacing: float = 4.0) -> LinkSet:
    """n random unit-ish links spread over a square (no shared nodes)."""
    gen = np.random.default_rng(rng)
    side = spacing * np.sqrt(n)
    senders = gen.uniform(0.0, side, size=(n, 2))
    angles = gen.uniform(0.0, 2 * np.pi, size=n)
    lengths = gen.uniform(0.5, 1.5, size=n)
    offsets = lengths[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return LinkSet(senders, senders + offsets)


# ----------------------------------------------------------------------
# The seed paths, reproduced verbatim: every query rebuilds its dense
# matrix.  The seed kept the gap matrix on the LinkSet, so its additive
# arm reads one gap matrix computed before timing, and the comparison
# isolates the kernel layer itself.
# ----------------------------------------------------------------------
def _seed_additive_interference(links, gap, alpha, source, target):
    with np.errstate(divide="ignore"):
        ratio = (links.lengths[:, None] / gap) ** alpha
    m = np.minimum(1.0, ratio)
    np.fill_diagonal(m, 0.0)
    return float(m[np.asarray(source, dtype=int), int(target)].sum())


def _seed_is_feasible(links, vec, model, active):
    idx = np.asarray(active, dtype=int)
    sub = links.subset(idx)
    p = vec[idx]
    dist = sub.sender_receiver_distances()
    with np.errstate(divide="ignore", over="ignore"):
        rel = (p[:, None] / p[None, :]) * (sub.lengths[None, :] / dist) ** model.alpha
    np.fill_diagonal(rel, 0.0)
    with np.errstate(divide="ignore"):
        denom = rel.sum(axis=0)
        values = np.where(denom > 0, 1.0 / denom, np.inf)
    return bool(np.all(values >= model.beta))


def test_kernel_repeated_query_speedup(benchmark, model, emit):
    links = _random_links(N_QUERY, rng=11)
    gen = np.random.default_rng(12)
    vec = gen.uniform(0.5, 2.0, size=N_QUERY)
    additive_queries = [
        (gen.choice(N_QUERY, size=64, replace=False), int(gen.integers(N_QUERY)))
        for _ in range(15)
    ]
    feasibility_queries = [
        gen.choice(N_QUERY, size=256, replace=False) for _ in range(30)
    ]

    gap = links.link_distances()

    def run_seed():
        results = []
        for src, tgt in additive_queries:
            results.append(_seed_additive_interference(links, gap, model.alpha, src, tgt))
        for subset in feasibility_queries:
            results.append(_seed_is_feasible(links, vec, model, subset))
        return results

    def run_kernel():
        results = []
        for src, tgt in additive_queries:
            results.append(additive_interference(links, model.alpha, src, tgt))
        for subset in feasibility_queries:
            results.append(is_feasible_with_power(links, vec, model, subset))
        return results

    # Warm both arms: the first-call costs of either path (imports, the
    # attached cache).
    seed_results = run_seed()
    kernel_results = benchmark.pedantic(run_kernel, rounds=1, iterations=1, warmup_rounds=1)
    t0 = time.perf_counter()
    run_seed()
    t_seed = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_kernel()
    t_kernel = time.perf_counter() - t0
    speedup = t_seed / t_kernel

    stats = links.kernel().stats
    emit(
        f"KERNEL: repeated queries at n={N_QUERY} (45 queries/round)",
        [
            f"{'path':>10}{'time/round':>14}",
            f"{'seed':>10}{t_seed * 1e3:>12.1f}ms",
            f"{'kernel':>10}{t_kernel * 1e3:>12.1f}ms",
            f"speedup: {speedup:.1f}x   (dense builds={stats.dense_builds})",
        ],
    )

    for a, b in zip(seed_results, kernel_results):
        assert a == pytest.approx(b, rel=1e-9)
    assert speedup >= MIN_SPEEDUP


def test_kernel_chunked_10k_schedule(benchmark, model, emit):
    links = _random_links(N_LARGE, rng=7, spacing=10.0)
    kernel = links.kernel(block_size=512)
    assert kernel.chunked  # 10k > KERNEL_MAX_DENSE_LINKS

    builder = ScheduleBuilder(model, "uniform")
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        schedule, report = benchmark.pedantic(
            builder.build_with_report, args=(links,), rounds=1, iterations=1
        )
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    stats = links.kernel().stats
    emit(
        f"KERNEL: chunked end-to-end schedule at n={N_LARGE}",
        [
            f"slots={schedule.num_slots} initial_colors={report.initial_colors} "
            f"split_classes={report.split_classes}",
            f"time={elapsed:.1f}s (traced) block_evals={stats.block_evals} "
            f"dense_builds={stats.dense_builds} peak={peak / 2**20:.0f}MiB",
        ],
    )

    # The memory ceiling: no dense n x n float64 matrix was ever
    # materialised — neither by the kernel cache nor anywhere else in
    # the build, whose traced peak stays below one such matrix.
    assert kernel.stats.dense_builds == 0
    assert peak < 8 * N_LARGE**2
    assert schedule.num_slots >= 1
    assert sum(len(s) for s in schedule.slots) == N_LARGE
