"""Differential tests: independent implementations must agree.

Two families of cross-checks:

* **Schedulers** — the certified pipeline, greedy SINR packing and the
  protocol-model baseline are three independent routes to a slot
  partition of the same link set.  Every one of their slots is
  re-verified against Equation (1) *slot by slot*, all through the one
  shared per-LinkSet :class:`~repro.sinr.kernels.KernelCache` — so the
  feasibility oracle, the kernel layer and all three schedulers must
  agree on the same memoized interference rows.

* **Job backends** — the inline (``workers == 1``) and process-pool
  (``workers > 1``) :class:`~repro.jobs.JobService` backends execute
  the same sweep; their persisted :class:`CellResult` rows must be
  byte-identical after dropping the timing fields (the documented
  determinism contract of :mod:`repro.runner.results`).
"""

from __future__ import annotations

import json

import pytest

from repro import AggregationTree, SINRModel, uniform_square
from repro.api.components import power_schemes, schedulers
from repro.runner import TIMING_FIELDS, SweepEngine, SweepSpec
from repro.sinr.feasibility import is_feasible_with_power

MODEL = SINRModel(alpha=3.0, beta=1.0)

#: (scheduler, power scheme, extra params) triples under test.  The
#: protocol-model guard of 1.0 is SINR-feasible on this instance (that
#: is part of what the test locks: the disk model's safety margin holds
#: under these parameters).
SCHEDULERS = (
    ("certified", "global", {}),
    ("certified", "oblivious", {}),
    ("greedy-sinr", "mean", {}),
    ("protocol-model", "uniform", {"guard": 1.0}),
)


@pytest.fixture(scope="module")
def instance():
    points = uniform_square(30, rng=7)
    tree = AggregationTree.mst(points)
    return tree.links()


class TestSchedulerDifferential:
    def test_all_schedulers_sinr_feasible_slot_by_slot(self, instance):
        """Every slot of every scheduler passes Equation (1), verified
        through one shared kernel cache."""
        links = instance
        kernel = links.kernel()
        before = kernel.stats.snapshot()
        for name, power, params in SCHEDULERS:
            schedule, _report = schedulers.get(name).build(
                links, MODEL, power_schemes.get(power), **params
            )
            assert schedule.num_slots >= 1
            covered = []
            for k, slot in enumerate(schedule.slots):
                vec = schedule._full_power_vector(slot)
                assert is_feasible_with_power(
                    links, vec, MODEL, slot.link_indices
                ), f"{name}: slot {k} violates SINR"
                covered.extend(slot.link_indices)
            assert sorted(covered) == list(range(len(links)))
        # One LinkSet, one kernel: the verification loop above must have
        # routed through the same cache every scheduler used.
        assert links.kernel() is kernel
        after = kernel.stats.snapshot()
        served = after["entries_served"] + after["block_evals"]
        base = before["entries_served"] + before["block_evals"]
        assert served > base

    def test_certified_never_beaten_by_tdma_and_orderings_agree(self, instance):
        """Sanity cross-check: scheduler quality orders as the paper
        says on a random square — certified <= greedy <= tdma slots."""
        links = instance
        builds = {}
        for name, power, params in SCHEDULERS[:3]:
            schedule, _ = schedulers.get(name).build(
                links, MODEL, power_schemes.get(power), **params
            )
            builds[(name, power)] = schedule.num_slots
        tdma, _ = schedulers.get("tdma").build(
            links, MODEL, power_schemes.get("uniform")
        )
        assert builds[("certified", "global")] <= tdma.num_slots
        assert builds[("greedy-sinr", "mean")] <= tdma.num_slots


class TestJobBackendDifferential:
    def test_inline_and_pool_backends_produce_identical_rows(self, tmp_path):
        """jobs=1 (inline) and jobs=2 (process pool) persist
        byte-identical JSONL rows for the same sweep, timing aside."""
        spec = SweepSpec(
            topologies=("square", "grid"),
            ns=(12,),
            modes=("global", "uniform"),
            seeds=2,
        )
        paths = {}
        for jobs in (1, 2):
            out = tmp_path / f"sweep-j{jobs}.jsonl"
            report = SweepEngine(spec, jobs=jobs, out_path=out).run()
            assert report.failed == 0 and report.executed == spec.num_cells
            paths[jobs] = out

        def canonical(path):
            rows = []
            for line in path.read_text().splitlines():
                row = json.loads(line)
                for drop in TIMING_FIELDS:
                    row[drop] = 0.0
                rows.append(json.dumps(row, sort_keys=True))
            return rows

        inline, pooled = canonical(paths[1]), canonical(paths[2])
        assert inline == pooled
        assert len(inline) == spec.num_cells

    def test_backends_agree_on_dynamic_scenario_cells(self, tmp_path):
        """The scenario path is deterministic across backends too: a
        churn timeline's per-epoch metrics survive pickling unchanged."""
        spec = SweepSpec(
            topologies=("square",),
            ns=(14,),
            modes=("global",),
            scenarios=("static", "churn"),
            epochs=2,
        )
        rows = {}
        for jobs in (1, 2):
            out = tmp_path / f"scn-j{jobs}.jsonl"
            SweepEngine(spec, jobs=jobs, out_path=out).run()
            rows[jobs] = [
                json.loads(line) for line in out.read_text().splitlines()
            ]
        for a, b in zip(rows[1], rows[2]):
            for drop in TIMING_FIELDS:
                a[drop] = b[drop] = 0.0
            # Byte-identical including epoch_metrics: persisted rows
            # carry no cache counters (those vary with backend warmth
            # and live in the ScenarioResult record instead).
            assert a == b
            for epoch in a.get("epoch_metrics") or []:
                assert "store" not in epoch
