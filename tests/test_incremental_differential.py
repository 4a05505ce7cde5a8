"""Differential certification of the incremental delta scheduler.

The incremental scheduler is only trustworthy if it is provably
equivalent to the from-scratch path: over churn / mobility / fading
timelines every epoch's incremental schedule must be SINR-feasible
slot-by-slot (checked here through one shared kernel cache per epoch),
cover exactly the epoch's link set, and stay within a fixed slot-count
factor of the from-scratch ``certified`` schedule; static scenarios
must reproduce the non-incremental schedules byte for byte.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.api.config import PipelineConfig
from repro.api.components import schedulers
from repro.errors import ConfigurationError
from repro.links.linkset import LinkSet
from repro.scenarios import ScenarioRunner
from repro.scheduling import ScheduleBuilder
from repro.scheduling.schedule import Schedule, Slot
from repro.scheduling.incremental import (
    IncrementalScheduler,
    ScheduleState,
    link_ids_for_links,
)
from repro.sinr.feasibility import is_feasible_with_power
from repro.sinr.model import SINRModel
from repro.store import stages
from repro.store.store import StageStore

#: Base instance of every timeline: small enough for CI, large enough
#: that churn/mobility actually perturb multi-link slots.
CONFIG = PipelineConfig(
    topology="square", n=30, seed=3, power="oblivious",
    scheduler="incremental-certified",
)
SCRATCH = CONFIG.replace(scheduler="certified")

#: Post-repair slot counts of both paths are certified partitions of
#: the same link set, so they agree within a small constant factor.
SLOT_FACTOR = 3.0


class RecordingRunner(ScenarioRunner):
    """ScenarioRunner that records every resolved epoch schedule: each
    ``stages.schedule_for`` call that passes an epoch's links (the
    baseline's call resolves its own)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def run(self):
        resolve = stages.schedule_for

        def record(config, store, model=None, **kwargs):
            schedule, report = resolve(config, store, model, **kwargs)
            if kwargs.get("links") is not None:
                self.records.append((model, kwargs["links"], schedule, report))
            return schedule, report

        with mock.patch.object(stages, "schedule_for", record):
            return super().run()


def run_recorded(config, scenario, **kwargs):
    kwargs.setdefault("store", StageStore())
    runner = RecordingRunner(config, scenario, **kwargs)
    return runner.run(), runner.records


TIMELINES = [
    ("churn", {"p_leave": 0.08}),
    ("mobility", {"speed": 0.05}),
    ("fading", {"sigma": 0.15}),
]


# ---------------------------------------------------------------------------
# Dynamic timelines: feasibility, coverage, slot-count factor
# ---------------------------------------------------------------------------
class TestDynamicTimelines:
    @pytest.mark.parametrize("scenario,params", TIMELINES)
    def test_every_epoch_is_feasible_and_covers_the_link_set(
        self, scenario, params
    ):
        result, records = run_recorded(
            CONFIG, scenario, epochs=4, params=params
        )
        assert len(records) == 4
        for model, links, schedule, report in records:
            # Exact cover: every link in exactly one slot.
            scheduled = sorted(
                i for slot in schedule.slots for i in slot.link_indices
            )
            assert scheduled == list(range(len(links)))
            # Slot-by-slot SINR feasibility under the epoch's model,
            # every probe through the one shared kernel cache of the
            # epoch's link set.
            kernel = links.kernel()
            for slot in schedule.slots:
                vec = schedule._full_power_vector(slot)
                assert is_feasible_with_power(
                    links, vec, model, slot.link_indices
                )
            assert links.kernel() is kernel
            assert report is not None and report.repair_cost is not None
        assert all(e.feasibility_violations == 0 for e in result.epoch_results)

    @pytest.mark.parametrize("scenario,params", TIMELINES)
    def test_slot_count_within_fixed_factor_of_scratch(self, scenario, params):
        inc = ScenarioRunner(
            CONFIG, scenario, epochs=4, params=params, store=StageStore()
        ).run()
        scratch = ScenarioRunner(
            SCRATCH, scenario, epochs=4, params=params, store=StageStore()
        ).run()
        for e_inc, e_scr in zip(inc.epoch_results, scratch.epoch_results):
            assert e_inc.links == e_scr.links
            assert e_inc.slots <= SLOT_FACTOR * e_scr.slots
            assert e_scr.slots <= SLOT_FACTOR * e_inc.slots

    def test_churn_reexamines_less_than_the_full_link_set(self):
        _result, records = run_recorded(
            CONFIG, "churn", epochs=4, params={"p_leave": 0.05}
        )
        for _model, links, _schedule, report in records:
            cost = report.repair_cost
            assert not cost["cold_start"]
            assert cost["links_reexamined"] < cost["links_total"]
            assert cost["links_total"] == len(links)

    def test_epoch_json_carries_the_repair_counters(self):
        result, _records = run_recorded(
            CONFIG, "churn", epochs=2, params={"p_leave": 0.1}
        )
        for epoch in result.epoch_results:
            row = epoch.to_json_dict(with_store=False)
            assert row["schedule_repair"]["links_total"] == epoch.links
            assert "store" not in row

    def test_incremental_uses_fewer_kernel_entries_than_scratch(self):
        """The O(affected) claim in the kernel-entry currency: on a
        mild churn timeline every warm epoch serves fewer kernel
        entries than the same epoch scheduled from scratch (both
        measured on cold kernels over identical link sets)."""
        _result, records = run_recorded(
            CONFIG, "churn", epochs=3, params={"p_leave": 0.05}
        )
        for model, links, _schedule, _report in records:
            clone = LinkSet(
                links.senders, links.receivers,
                sender_ids=links.sender_ids, receiver_ids=links.receiver_ids,
            )
            ScheduleBuilder(model, "oblivious").build_with_report(clone)
            scratch_entries = clone.kernel().stats.entries_served
            warm_entries = links.kernel().stats.entries_served
            assert 0 < warm_entries < scratch_entries

    def test_churn_epochs_never_build_a_dense_kernel(self):
        """Warm builds probe carried slots one link at a time; the
        kernel must answer each probe with its own entries, not with an
        n x n matrix per epoch kept alive by the stage store."""
        _result, records = run_recorded(
            CONFIG, "churn", epochs=3, params={"p_leave": 0.05}
        )
        assert not records[-1][3].repair_cost["cold_start"]
        for _model, links, _schedule, _report in records:
            assert links.kernel().stats.dense_builds == 0


# ---------------------------------------------------------------------------
# Static timelines: byte-identical to the non-incremental path
# ---------------------------------------------------------------------------
class TestStaticEquivalence:
    def test_static_epochs_byte_identical_to_certified(self):
        _inc_result, inc_records = run_recorded(CONFIG, "static", epochs=3)
        _scr_result, scr_records = run_recorded(SCRATCH, "static", epochs=3)
        assert len(inc_records) == len(scr_records) == 3
        for (_, _, inc_sched, _), (_, _, scr_sched, _) in zip(
            inc_records, scr_records
        ):
            inc_slots = [
                (slot.link_indices, slot.powers) for slot in inc_sched.slots
            ]
            scr_slots = [
                (slot.link_indices, slot.powers) for slot in scr_sched.slots
            ]
            assert inc_slots == scr_slots

    def test_cold_start_matches_the_certified_builder(self):
        store = StageStore()
        from repro.store import stages

        links = stages.links_for(CONFIG, store)
        model = SINRModel(alpha=CONFIG.alpha, beta=CONFIG.beta)
        inc_sched, inc_report = IncrementalScheduler(
            model, "oblivious"
        ).schedule(links)
        scr_sched, scr_report = ScheduleBuilder(
            model, "oblivious"
        ).build_with_report(links)
        assert [
            (s.link_indices, s.powers) for s in inc_sched.slots
        ] == [(s.link_indices, s.powers) for s in scr_sched.slots]
        cost = inc_report.repair_cost
        assert cost["cold_start"]
        assert cost["links_inserted"] == cost["links_total"] == len(links)
        assert cost["slots_opened"] == scr_report.final_slots
        assert scr_report.repair_cost is None


# ---------------------------------------------------------------------------
# Guard rails
# ---------------------------------------------------------------------------
class TestGuards:
    def test_registered_with_carries_state(self):
        spec = schedulers.get("incremental-certified")
        assert spec.carries_state and spec.certified
        assert spec.constants == frozenset({"gamma", "delta", "tau"})
        assert not schedulers.get("certified").carries_state

    def test_global_power_is_rejected(self):
        model = SINRModel(alpha=3.0, beta=1.0)
        with pytest.raises(ConfigurationError, match="fixed power"):
            IncrementalScheduler(model, "global")

    def test_mismatched_or_duplicate_link_ids_fail_loudly(self):
        model = SINRModel(alpha=3.0, beta=1.0)
        links = LinkSet([[0.0, 0.0], [2.0, 0.0]], [[0.5, 0.0], [2.5, 0.0]])
        inc = IncrementalScheduler(model, "oblivious")
        schedule, _report = inc.schedule(links)
        state = ScheduleState.from_schedule(
            schedule, [(0, 1), (2, 3)], model
        )
        with pytest.raises(ConfigurationError, match="one link id per link"):
            inc.schedule(links, link_ids=[(0, 1)], prev_state=state)
        with pytest.raises(ConfigurationError, match="unique"):
            inc.schedule(links, link_ids=[(0, 1), (0, 1)], prev_state=state)
        with pytest.raises(ConfigurationError, match="one link id per link"):
            ScheduleState.from_schedule(schedule, [(0, 1)], model)

    def test_state_signature_tracks_content(self):
        model = SINRModel(alpha=3.0, beta=1.0)
        links = LinkSet([[0.0, 0.0], [2.0, 0.0]], [[0.5, 0.0], [2.5, 0.0]])
        schedule, _ = IncrementalScheduler(model, "oblivious").schedule(links)
        ids = [(0, 1), (2, 3)]
        a = ScheduleState.from_schedule(schedule, ids, model)
        b = ScheduleState.from_schedule(schedule, ids, model)
        assert a.signature() == b.signature()
        moved = LinkSet([[0.01, 0.0], [2.0, 0.0]], [[0.5, 0.0], [2.5, 0.0]])
        c = ScheduleState.from_schedule(
            IncrementalScheduler(model, "oblivious").schedule(moved)[0],
            ids,
            model,
        )
        assert a.signature() != c.signature()
        d = ScheduleState.from_schedule(
            schedule, ids, SINRModel(alpha=3.0, beta=1.5)
        )
        assert a.signature() != d.signature()

    @pytest.mark.parametrize(
        "bad_ids",
        [[(0, 1, 7), (2, 3, 9)], [("a", "b"), ("c", "d")], [(0, 1), (2,)], [(0.5, 1), (2, 3)]],
        ids=["triples", "strings", "ragged", "floats"],
    )
    def test_malformed_link_ids_raise_configuration_error(self, bad_ids):
        model = SINRModel(alpha=3.0, beta=1.0)
        links = LinkSet([[0.0, 0.0], [2.0, 0.0]], [[0.5, 0.0], [2.5, 0.0]])
        inc = IncrementalScheduler(model, "oblivious")
        schedule, _report = inc.schedule(links)
        state = ScheduleState.from_schedule(schedule, [(0, 1), (2, 3)], model)
        with pytest.raises(ConfigurationError, match="pairs of integers"):
            ScheduleState.from_schedule(schedule, bad_ids, model)
        with pytest.raises(ConfigurationError, match="pairs of integers"):
            inc.schedule(links, link_ids=bad_ids, prev_state=state)


# ---------------------------------------------------------------------------
# Carried-state signature
# ---------------------------------------------------------------------------
def _line_schedule(k=6):
    """``k`` short links along a line, certified, with persistent ids."""
    model = SINRModel(alpha=3.0, beta=1.0)
    senders = [[3.0 * i, 0.0] for i in range(k)]
    receivers = [[3.0 * i + 0.5 + 0.1 * i, 0.0] for i in range(k)]
    links = LinkSet(senders, receivers)
    schedule, _ = IncrementalScheduler(model, "oblivious").schedule(links)
    ids = [(10 * i + 1, 10 * i + 2) for i in range(k)]
    return links, schedule, ids, model


class TestStateSignature:
    def test_permuting_links_with_their_ids_keeps_the_signature(self):
        links, schedule, ids, model = _line_schedule()
        perm = np.random.default_rng(0).permutation(len(links))
        new_index = np.argsort(perm)  # old link index -> new position
        permuted = LinkSet(links.senders[perm], links.receivers[perm])
        slots = [
            Slot(tuple(int(new_index[i]) for i in slot.link_indices), slot.powers)
            for slot in schedule.slots
        ]
        moved = Schedule(permuted, slots, model, validate=False)
        a = ScheduleState.from_schedule(schedule, ids, model)
        b = ScheduleState.from_schedule(moved, [ids[j] for j in perm], model)
        assert a.signature() == b.signature()
        assert b.ids.tolist() == sorted(map(list, ids))

    @pytest.mark.parametrize(
        "field", ["ids", "slot", "pos", "power", "senders", "receivers"]
    )
    def test_any_changed_entry_changes_the_signature(self, field):
        links, schedule, ids, model = _line_schedule()
        state = ScheduleState.from_schedule(schedule, ids, model)
        column = getattr(state, field).copy()
        column.flat[len(column.flat) // 2] += 1
        changed = dataclasses.replace(state, **{field: column})
        assert changed.signature() != state.signature()

    def test_model_and_slot_count_change_the_signature(self):
        links, schedule, ids, model = _line_schedule()
        state = ScheduleState.from_schedule(schedule, ids, model)
        sig = state.signature()
        assert dataclasses.replace(state, num_slots=state.num_slots + 1).signature() != sig
        for k in range(4):
            model_sig = list(state.model_sig)
            model_sig[k] += 0.5
            assert dataclasses.replace(state, model_sig=tuple(model_sig)).signature() != sig

    def test_link_in_no_slot_gets_no_row(self):
        links, schedule, ids, model = _line_schedule()
        kept = [Slot((0,), (1.0,)), Slot((2, 1), (1.0, 2.0))]
        partial = Schedule(links, kept, model, validate=False)
        state = ScheduleState.from_schedule(partial, ids, model)
        assert state.ids.tolist() == [list(ids[0]), list(ids[1]), list(ids[2])]
        assert state.slot.tolist() == [0, 1, 1]
        assert state.pos.tolist() == [0, 1, 0]
        assert state.power.tolist() == [1.0, 2.0, 1.0]
        assert state.num_slots == 2

    def test_state_arrays_are_read_only(self):
        links, schedule, ids, model = _line_schedule()
        state = ScheduleState.from_schedule(schedule, ids, model)
        with pytest.raises(ValueError):
            state.slot[0] = 5
