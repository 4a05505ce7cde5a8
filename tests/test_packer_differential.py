"""Differential suite: the first-fit packers against the loops they replaced.

:class:`~repro.scheduling.repair.FixedPowerPacker` replaced two
hand-written fixed-power first-fit loops, and
:func:`~repro.util.ordering.first_fit` three predicate-driven ones.
The fixed-power loops live on verbatim in ``tests/oracles/repair_loops.py``;
the predicate loops are kept below as reference functions.  Every case
runs both sides on fresh, identical link sets and asserts equal slots,
equal :class:`~repro.scheduling.incremental.RepairCost` counters and
epoch deltas.  The kernel counters pin the packer's batching instead of
the loops' two calls per probe: no dense build ever, strictly fewer
block evaluations than the loop on from-scratch splits (exactly one,
check and pass together, for a split class of at most
``2 * block_size`` links), and on warm builds at most one more per
block the pass fetched (carried members are still fetched per probe).
A hypothesis property pins the warm build's kernel entries exactly to
that fetch pattern.
"""

from __future__ import annotations

import math
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.repair_loops import (
    LoopIncrementalScheduler,
    split_into_feasible_slots_fixed_power as loop_split_fixed_power,
)
from repro.api.config import PipelineConfig
from repro.coloring.refinement import refine_by_interference
from repro.errors import ConfigurationError, LinkError
from repro.geometry.generators import cluster_points, exponential_line, uniform_square
from repro.links.linkset import LinkSet
from repro.power.oblivious import ObliviousPower
from repro.scenarios import ScenarioRunner
from repro.scheduling.baselines import greedy_sinr_schedule
from repro.scheduling import repair
from repro.scheduling.incremental import IncrementalScheduler, ScheduleState
from repro.scheduling.repair import (
    FixedPowerPacker,
    split_into_feasible_slots_fixed_power,
)
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.affectance import additive_interference_matrix
from repro.sinr.feasibility import denominator_limit, is_feasible_with_power
from repro.sinr.model import SINRModel
from repro.spanning.tree import AggregationTree
from repro.store import stages
from repro.store.store import StageStore
from repro.util.ordering import argsort_by_length_nonincreasing

MODEL = SINRModel(alpha=3.0, beta=1.0)
NOISY = SINRModel(alpha=3.0, beta=1.0, noise=0.05)


def crowded_links(n: int, seed: int, side: float = 4.0) -> LinkSet:
    """``n`` random links of length 0.2..1 in a ``side`` square: dense
    enough that uniform-power classes need several slots."""
    gen = np.random.default_rng(seed)
    senders = gen.uniform(0.0, side, size=(n, 2))
    angles = gen.uniform(0.0, 2 * np.pi, size=n)
    lengths = gen.uniform(0.2, 1.0, size=n)
    offsets = lengths[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return LinkSet(senders, senders + offsets)


def twin(links: LinkSet) -> LinkSet:
    """A fresh link set with the same geometry and an empty kernel cache."""
    return LinkSet(
        links.senders, links.receivers,
        sender_ids=links.sender_ids, receiver_ids=links.receiver_ids,
    )


def stats(links: LinkSet) -> dict:
    return links.kernel().stats.snapshot()


def pass_blocks(placed: int, block_size: int) -> int:
    """Kernel blocks one :meth:`FixedPowerPacker.pack` pass over
    ``placed`` links fetches: one for the first run of ``block_size``
    links, two for every later run."""
    return 2 * math.ceil(placed / block_size) - 1 if placed else 0


def pass_entries(placed: int, block_size: int) -> int:
    """Kernel entries of those blocks: ``R[run, run]`` for the first
    run, ``R[run, head]`` and ``R[head, run]`` for every later one."""
    entries = min(placed, block_size) ** 2
    for start in range(block_size, placed, block_size):
        run = min(block_size, placed - start)
        entries += 2 * run * (start + run)
    return entries


# ---------------------------------------------------------------------------
# split_into_feasible_slots_fixed_power
# ---------------------------------------------------------------------------
SPLIT_CASES = [
    # (id, model, tau, slack, kernel kwargs)
    ("crowded-uniform", MODEL, 0.0, 0.0, {}),
    ("crowded-oblivious", MODEL, 0.5, 0.0, {}),
    ("crowded-linear", MODEL, 1.0, 0.0, {}),
    ("noisy", NOISY, 0.5, 0.0, {}),
    ("slack", MODEL, 0.0, 0.5, {}),
    ("blocked-sparse", MODEL, 0.0, 0.0, {"backend": "blocked-sparse", "block_size": 5}),
]


class TestSplitFixedPower:
    @pytest.mark.parametrize(
        "model,tau,slack,kernel_kwargs",
        [case[1:] for case in SPLIT_CASES],
        ids=[case[0] for case in SPLIT_CASES],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_packer_matches_the_loop(self, model, tau, slack, kernel_kwargs, seed):
        new = crowded_links(60, seed)
        old = twin(new)
        if kernel_kwargs:
            new.kernel(**kernel_kwargs)
            old.kernel(**kernel_kwargs)
        vec = ObliviousPower(tau, model.alpha).rescaled_for_noise(new, model).powers(new)
        gen = np.random.default_rng(100 + seed)
        # Several classes per link set, all through one kernel cache.
        classes = [np.arange(60)] + [
            gen.choice(60, size=size, replace=False) for size in (35, 20, 45, 1)
        ]
        split_pieces = 0
        for cls in classes:
            before_new, before_old = stats(new), stats(old)
            got = split_into_feasible_slots_fixed_power(new, cls, vec, model, slack=slack)
            want = loop_split_fixed_power(old, cls, vec, model, slack=slack)
            assert got == want
            evals_new = stats(new)["block_evals"] - before_new["block_evals"]
            evals_old = stats(old)["block_evals"] - before_old["block_evals"]
            if len(got) > 1:
                # One block per run instead of two calls per probe.
                assert evals_new < evals_old
            else:
                assert evals_new == evals_old  # the whole-class check only
            split_pieces += len(got) > 1
        assert split_pieces >= 2  # the packer, not the shortcut, ran
        assert stats(new)["dense_builds"] == 0

    @pytest.mark.parametrize(
        "model,slack,kernel_kwargs",
        [
            (MODEL, 0.0, {}),
            (NOISY, 0.0, {}),
            (MODEL, 0.5, {}),
            (MODEL, 0.0, {"block_size": 64}),
            (NOISY, 0.0, {"backend": "blocked-sparse", "block_size": 100}),
        ],
        ids=["shared-block", "shared-block-noisy", "shared-block-slack", "chunked",
             "chunked-noisy"],
    )
    def test_large_classes_match_the_loop(self, model, slack, kernel_kwargs):
        """Classes of 200-400 links: within ``2 * block_size`` they share
        one block between the whole-class check and the pass; above it
        they keep the streamed check and the run-by-run pass."""
        new = crowded_links(400, 0, side=9.0)
        old = twin(new)
        new.kernel(**kernel_kwargs)
        old.kernel(**kernel_kwargs)
        block_size = new.kernel().block_size
        vec = ObliviousPower(0.5, model.alpha).rescaled_for_noise(new, model).powers(new)
        gen = np.random.default_rng(200)
        for size in (400, 300, 200):
            cls = gen.choice(400, size=size, replace=False)
            before = stats(new)["block_evals"]
            got = split_into_feasible_slots_fixed_power(new, cls, vec, model, slack=slack)
            assert got == loop_split_fixed_power(old, cls, vec, model, slack=slack)
            assert len(got) > 1
            if size <= 2 * block_size:
                assert stats(new)["block_evals"] - before == 1
        assert stats(new)["dense_builds"] == 0

    @pytest.mark.parametrize(
        "kernel_kwargs",
        [{"block_size": 8}, {"backend": "blocked-sparse", "block_size": 8}],
        ids=["dense", "blocked-sparse"],
    )
    @pytest.mark.parametrize("extra", [0, 1], ids=["2bs", "2bs+1"])
    def test_split_at_twice_the_block_size(self, kernel_kwargs, extra):
        """``2 * block_size`` links are one block, check and pass
        together; one more keeps the streamed check (one block on a
        dense kernel, one per ``block_size`` rows on a chunked one) and
        the run-by-run pass."""
        new = crowded_links(60, 7, side=2.0)
        old = twin(new)
        kernel = new.kernel(**kernel_kwargs)
        old.kernel(**kernel_kwargs)
        size = 2 * kernel.block_size + extra
        cls = np.random.default_rng(extra).choice(60, size=size, replace=False)
        vec = np.ones(60)
        with mock.patch.object(
            repair, "_denominators", side_effect=repair._denominators
        ) as denominators:
            got = split_into_feasible_slots_fixed_power(new, cls, vec, MODEL)
        assert got == loop_split_fixed_power(old, cls, vec, MODEL)
        assert len(got) > 1
        # The class is decided from relative_colsums' own sums, bit for bit.
        colsums = denominators.call_args.args[4]
        want = twin(new).kernel(**kernel_kwargs).relative_colsums(vec, MODEL.alpha, cls)
        assert colsums.tobytes() == want.tobytes()
        if extra == 0:
            assert kernel.stats.block_evals == 1
            assert kernel.stats.entries_served == size * size
        else:
            check = math.ceil(size / kernel.block_size) if kernel.chunked else 1
            assert kernel.stats.block_evals == check + pass_blocks(size, kernel.block_size)
            assert kernel.stats.entries_served == size * size + pass_entries(
                size, kernel.block_size
            )
        assert kernel.stats.dense_builds == 0

    def test_noise_decides_the_whole_class(self):
        """Interference 0.6 and noise 0.5 per link: each link alone is
        feasible, the pair is not, so the shared-block verdict must add
        the noise terms."""
        offset = math.sqrt(0.6 ** (-2 / 3) - 1.0)
        links = LinkSet(
            np.array([[0.0, 0.0], [0.0, offset]]), np.array([[1.0, 0.0], [1.0, offset]])
        )
        noisy = SINRModel(alpha=3.0, beta=1.0, noise=0.5)
        assert not is_feasible_with_power(links, np.ones(2), noisy)
        assert is_feasible_with_power(links, np.ones(2), MODEL)
        got = split_into_feasible_slots_fixed_power(links, [0, 1], np.ones(2), noisy)
        assert got == [[0], [1]]
        assert got == loop_split_fixed_power(twin(links), [0, 1], np.ones(2), noisy)

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_underflowing_exponential_line_matches_the_loop(self, tau):
        """Gaps growing by 1e3 per link: hundreds of kernel entries
        underflow to 0 and links sharing a node interfere infinitely."""
        links = AggregationTree.mst(exponential_line(60, base=1e3)).links()
        m = len(links)
        vec = ObliviousPower(tau, MODEL.alpha).powers(links)
        block = links.kernel().relative_submatrix(vec, MODEL.alpha, range(m), range(m))
        assert (block == 0).sum() > m and np.isinf(block).any()
        for cls in (np.arange(m), np.arange(0, m, 2), np.arange(m)[::-1]):
            got = split_into_feasible_slots_fixed_power(links, cls, vec, MODEL)
            assert got == loop_split_fixed_power(twin(links), cls, vec, MODEL)
            assert len(got) > 1

    @pytest.mark.parametrize("size", [10, 30, 60])
    def test_a_split_within_one_block_is_one_kernel_call(self, size):
        """The whole-class check and the pass read one ``R[C, C]``."""
        links = crowded_links(60, 7, side=2.0)
        kernel = links.kernel(block_size=60)
        vec = np.ones(60)
        got = split_into_feasible_slots_fixed_power(links, np.arange(size), vec, MODEL)
        assert len(got) > 1
        assert kernel.stats.block_evals == 1
        assert kernel.stats.entries_served == size * size
        assert got == loop_split_fixed_power(twin(links), np.arange(size), vec, MODEL)

    @pytest.mark.parametrize("size", [1, 2, 20])
    def test_a_pass_within_one_block_is_one_kernel_call(self, size):
        links = crowded_links(60, 7)
        kernel = links.kernel(block_size=20)
        slots = FixedPowerPacker(links, np.ones(60), MODEL).pack(list(range(size)))
        assert kernel.stats.block_evals == 1
        assert sorted(i for slot in slots for i in slot) == list(range(size))

    def test_a_longer_pass_fetches_two_blocks_per_later_run(self):
        links = crowded_links(60, 7)
        kernel = links.kernel(block_size=20)
        vec = np.ones(60)
        slots = FixedPowerPacker(links, vec, MODEL).pack(list(range(45)))
        assert kernel.stats.block_evals == pass_blocks(45, 20) == 5
        assert slots == loop_split_fixed_power(twin(links), np.arange(45), vec, MODEL)


class TestPackerInputs:
    """Bad indices, power vectors and slacks are typed errors, never a
    silent packing or a bare numpy ``IndexError``."""

    def test_pack_rejects_a_repeated_index(self):
        """The kernels zero entries whose indices coincide, so a second
        copy would be packed as a link that never interferes."""
        packer = FixedPowerPacker(crowded_links(30, 0), np.ones(30), MODEL)
        with pytest.raises(LinkError, match="link index 3 is repeated"):
            packer.pack([3, 3, 4])
        assert packer.slots == []

    def test_carry_rejects_a_repeated_index(self):
        """With ``recheck`` the repeat used to be kept, its pair's
        entries zeroed as if the link never interfered with itself."""
        packer = FixedPowerPacker(crowded_links(30, 0), np.ones(30), MODEL)
        with pytest.raises(LinkError, match="link index 1 is repeated"):
            packer.carry([1, 1, 2], recheck=True)
        with pytest.raises(LinkError, match="link index 1 is repeated"):
            packer.carry([1, 1, 2], recheck=False)
        assert packer.slots == [] and packer.denoms == []

    def test_carry_rejects_an_out_of_range_index(self):
        packer = FixedPowerPacker(crowded_links(30, 0), np.ones(30), MODEL)
        with pytest.raises(LinkError, match="link index 99 is out of range for 30 links"):
            packer.carry([1, 99], recheck=False)
        assert packer.slots == []

    @pytest.mark.parametrize("recheck", [False, True])
    def test_a_link_joins_at_most_one_open_slot(self, recheck):
        packer = FixedPowerPacker(crowded_links(30, 0, side=30.0), np.ones(30), MODEL)
        assert packer.carry([1, 2], recheck=recheck) == []
        with pytest.raises(LinkError, match="link index 1 is already in an open slot"):
            packer.pack([1, 3])
        with pytest.raises(LinkError, match="link index 2 is already in an open slot"):
            packer.carry([4, 2], recheck=recheck)
        assert packer.slots == [[1, 2]]
        packer.pack([3])
        with pytest.raises(LinkError, match="link index 3 is already in an open slot"):
            packer.pack([3])
        assert sorted(i for slot in packer.slots for i in slot) == [1, 2, 3]

    def test_an_evicted_link_can_be_packed_again(self):
        """Link 1 sends from link 0's receiver, so link 0 sees infinite
        interference: a recheck evicts it, and it is free to be packed
        (into a slot of its own)."""
        links = LinkSet(
            np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]]),
            np.array([[1.0, 0.0], [2.0, 0.0], [9.0, 10.0]]),
        )
        packer = FixedPowerPacker(links, np.ones(3), MODEL)
        assert packer.carry([0, 1, 2], recheck=True) == [0]
        assert packer.pack([0]) == [[1, 2], [0]]

    def test_split_rejects_a_repeated_index(self):
        with pytest.raises(LinkError, match="link index 3 is repeated"):
            split_into_feasible_slots_fixed_power(
                crowded_links(30, 0), [3, 4, 3], np.ones(30), MODEL
            )

    @pytest.mark.parametrize(
        "power", [np.ones(29), np.ones(31), np.r_[np.ones(29), 0.0], np.r_[np.ones(29), np.nan]]
    )
    def test_power_vector_is_checked(self, power):
        with pytest.raises(ConfigurationError):
            FixedPowerPacker(crowded_links(30, 0), power, MODEL)

    @pytest.mark.parametrize("slack", [-1.0, np.nan, np.inf])
    def test_slack_must_be_finite_and_non_negative(self, slack):
        links = crowded_links(30, 0)
        with pytest.raises(ConfigurationError, match="slack"):
            FixedPowerPacker(links, np.ones(30), MODEL, slack=slack)
        with pytest.raises(ConfigurationError, match="slack"):
            split_into_feasible_slots_fixed_power(links, range(30), np.ones(30), MODEL, slack=slack)

    def test_limit_is_the_thresholds_denominator_limit(self):
        packer = FixedPowerPacker(crowded_links(30, 0), np.ones(30), NOISY, slack=0.25)
        assert packer.limit == denominator_limit(NOISY.beta * 1.25)


# ---------------------------------------------------------------------------
# IncrementalScheduler._warm_build
# ---------------------------------------------------------------------------
TIMELINES = [
    ("churn", {"p_leave": 0.08}),
    ("mobility", {"speed": 0.05}),
    ("fading", {"sigma": 0.15}),
]


class RecordingRunner(ScenarioRunner):
    """Records every warm build's inputs: epoch model, links, ids and
    the carried state."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.warm_inputs = []

    def run(self):
        resolve = stages.schedule_for

        def record(config, store, model=None, **kwargs):
            if kwargs.get("carried") is not None:
                self.warm_inputs.append(
                    (model, kwargs["links"], kwargs["link_ids"], kwargs["carried"])
                )
            return resolve(config, store, model, **kwargs)

        with mock.patch.object(stages, "schedule_for", record):
            return super().run()


def assert_same_warm_build(model, links, link_ids, state, mode="oblivious"):
    """Run both warm builds on twins of ``links``; returns the repair cost."""
    new_links, old_links = twin(links), twin(links)
    new = IncrementalScheduler(model, mode)
    old = LoopIncrementalScheduler(model, mode)
    new_sched, new_report = new.schedule(new_links, link_ids=link_ids, prev_state=state)
    old_sched, old_report = old.schedule(old_links, link_ids=link_ids, prev_state=state)
    assert [(s.link_indices, s.powers) for s in new_sched.slots] == [
        (s.link_indices, s.powers) for s in old_sched.slots
    ]
    assert new_report.repair_cost == old_report.repair_cost
    assert new_report.slot_sizes == old_report.slot_sizes
    assert new_report.initial_colors == old_report.initial_colors
    assert vars(new.last_delta) == vars(old.last_delta)
    # Carried members are fetched per probe, as the loop did; entries
    # among the inserted links come from the pass's blocks.
    fetched = pass_blocks(
        new_report.repair_cost["links_inserted"], new_links.kernel().block_size
    )
    assert stats(new_links)["dense_builds"] == 0
    assert stats(new_links)["block_evals"] <= stats(old_links)["block_evals"] + fetched
    return new_report.repair_cost


class TestWarmBuild:
    @pytest.mark.parametrize("scenario,params", TIMELINES)
    @pytest.mark.parametrize("n", [30, 120])
    def test_timeline_warm_builds_match_the_loop(self, scenario, params, n):
        config = PipelineConfig(
            topology="square", n=n, seed=3, power="oblivious",
            scheduler="incremental-certified",
        )
        runner = RecordingRunner(
            config, scenario, epochs=3, params=params, store=StageStore()
        )
        runner.run()
        assert len(runner.warm_inputs) == 3
        costs = [assert_same_warm_build(*inputs) for inputs in runner.warm_inputs]
        if scenario == "mobility":
            # Moving nodes break carried slots: eviction and re-insertion
            # into new slots both ran.
            assert max(c["links_evicted"] for c in costs) > 0
            assert max(c["slots_opened"] for c in costs) > 0

    @pytest.mark.parametrize(
        "changed",
        [SINRModel(alpha=3.0, beta=1.5), SINRModel(alpha=3.0, beta=1.0, noise=0.02)],
        ids=["beta", "noise"],
    )
    def test_model_change_rechecks_every_slot_like_the_loop(self, changed):
        links = AggregationTree.mst(uniform_square(80, side=12.0, rng=11)).links()
        ids = [(i, 1000 + i) for i in range(len(links))]
        schedule, _ = IncrementalScheduler(MODEL, "oblivious").schedule(links)
        state = ScheduleState.from_schedule(schedule, ids, MODEL)
        cost = assert_same_warm_build(changed, links, ids, state)
        # Every carried slot was dirty, so every link was re-examined.
        assert cost["links_reexamined"] == len(links)
        assert cost["links_evicted"] > 0

    @pytest.mark.parametrize("mode", ["uniform", "linear"])
    def test_arrivals_into_clean_slots_match_the_loop(self, mode):
        # Clean carried slots are materialised lazily, at their first
        # insertion probe; new links far from and close to the old ones.
        base = crowded_links(40, 5, side=10.0)
        ids = [(i, 1000 + i) for i in range(len(base))]
        schedule, _ = IncrementalScheduler(MODEL, mode).schedule(base)
        state = ScheduleState.from_schedule(schedule, ids, MODEL)
        extra = crowded_links(15, 6, side=10.0)
        links = LinkSet(
            np.vstack([base.senders[5:], extra.senders]),
            np.vstack([base.receivers[5:], extra.receivers]),
        )
        new_ids = ids[5:] + [(5000 + j, 6000 + j) for j in range(len(extra))]
        cost = assert_same_warm_build(MODEL, links, new_ids, state, mode=mode)
        assert cost["links_inserted"] == len(extra)


def random_epoch(seed: int, n_old: int, n_new: int, num_slots: int, mode: str):
    """A previous schedule of random (not necessarily feasible) slots
    over ``n_old`` links, and the next epoch's links and ids: about a
    fifth of the old links moved (their slots are rechecked), a tenth
    departed, and ``n_new`` arrived."""
    gen = np.random.default_rng(seed)
    pool = crowded_links(n_old + n_new, seed, side=float(gen.choice([2.0, 4.0, 8.0])))
    prev = LinkSet(pool.senders[:n_old], pool.receivers[:n_old])
    cold, _ = IncrementalScheduler(MODEL, mode).schedule(prev)
    vec = np.empty(n_old)
    for slot in cold.slots:
        vec[list(slot.link_indices)] = slot.powers
    cuts = np.sort(gen.choice(np.arange(1, n_old), size=min(num_slots, n_old) - 1, replace=False))
    groups = np.split(gen.permutation(n_old), cuts)
    previous = Schedule(
        prev, [Slot.from_arrays(g.tolist(), vec[g]) for g in groups], MODEL, validate=False
    )
    old_ids = [(i, 1000 + i) for i in range(n_old)]
    state = ScheduleState.from_schedule(previous, old_ids, MODEL)
    # A moved link keeps its length (so its power), not its place.
    shift = np.where(gen.random(n_old) < 0.2, 0.3, 0.0)[:, None]
    stay = np.flatnonzero(gen.random(n_old) >= 0.1)
    links = LinkSet(
        np.vstack([(prev.senders + shift)[stay], pool.senders[n_old:]]),
        np.vstack([(prev.receivers + shift)[stay], pool.receivers[n_old:]]),
    )
    ids = [old_ids[i] for i in stay] + [(5000 + j, 6000 + j) for j in range(n_new)]
    return links, ids, state


def expected_warm_entries(carries, inserted, slots, block_size) -> int:
    """Kernel entries of one warm build's packer, from its calls:
    ``|members|^2`` per rechecked carry, then per carried slot that the
    pass probes ``|members|^2`` once if it was carried unchecked and
    ``2 |members|`` per probe (a link placed in slot ``s`` probed slots
    ``0..s``; one that opened a slot probed every carried one), plus
    the pass's run blocks."""
    entries = sum(len(members) ** 2 for members, _, recheck in carries if recheck)
    carried = [(len(kept), not recheck) for _, kept, recheck in carries if kept]
    final = {link: k for k, slot in enumerate(slots) for link in slot}
    for c, (size, unchecked) in enumerate(carried):
        probes = sum(final[link] >= c for link in inserted)
        if probes:
            entries += size**2 * unchecked + 2 * size * probes
    return entries + pass_entries(len(inserted), block_size)


class TestWarmBuildProperty:
    @given(
        seed=st.integers(0, 2**16 - 1),
        n_old=st.integers(2, 40),
        n_new=st.integers(0, 15),
        num_slots=st.integers(1, 8),
        mode=st.sampled_from(["uniform", "oblivious", "linear"]),
        block_size=st.sampled_from([4, 16, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_carry_and_pack_match_the_loop(self, seed, n_old, n_new, num_slots, mode, block_size):
        """Random carried slots (rechecked or not), evictions and
        inserted links: equal slots, powers, ``RepairCost`` and deltas
        to the loop, and exactly the packer's documented kernel
        entries."""
        links, ids, state = random_epoch(seed, n_old, n_new, num_slots, mode)
        links.kernel(block_size=block_size)
        carries, inserted = [], []
        carry, pack = FixedPowerPacker.carry, FixedPowerPacker.pack

        def record_carry(packer, members, *, recheck):
            evicted = carry(packer, members, recheck=recheck)
            carries.append((members, [m for m in members if m not in evicted], recheck))
            return evicted

        def record_pack(packer, indices):
            inserted.extend(indices)
            slots = pack(packer, indices)
            # Denominators stay aligned with the members, carried first.
            for members, denoms in zip(slots, packer.denoms):
                assert denoms is None or len(denoms) == len(members)
            return slots

        new_links = twin(links)
        new_links.kernel(block_size=block_size)
        with mock.patch.object(FixedPowerPacker, "carry", record_carry), mock.patch.object(
            FixedPowerPacker, "pack", record_pack
        ):
            schedule, report = IncrementalScheduler(MODEL, mode).schedule(
                new_links, link_ids=ids, prev_state=state
            )
        loop_links = twin(links)
        loop_links.kernel(block_size=block_size)
        loop = LoopIncrementalScheduler(MODEL, mode)
        loop_schedule, loop_report = loop.schedule(loop_links, link_ids=ids, prev_state=state)
        assert [(s.link_indices, s.powers) for s in schedule.slots] == [
            (s.link_indices, s.powers) for s in loop_schedule.slots
        ]
        assert report.repair_cost == loop_report.repair_cost
        slots = [list(s.link_indices) for s in schedule.slots]
        assert stats(new_links)["entries_served"] == expected_warm_entries(
            carries, inserted, slots, block_size
        )
        assert stats(new_links)["dense_builds"] == 0


# ---------------------------------------------------------------------------
# first_fit callers against their original loops
# ---------------------------------------------------------------------------
def loop_greedy_sinr_slots(links, vec, model) -> List[List[int]]:
    """The original ``greedy_sinr_schedule`` packing loop."""
    order = argsort_by_length_nonincreasing(links.lengths)
    slots: List[List[int]] = []
    for i in order:
        placed = False
        for slot in slots:
            candidate = slot + [int(i)]
            if is_feasible_with_power(links, vec, model, candidate):
                slot.append(int(i))
                placed = True
                break
        if not placed:
            slots.append([int(i)])
    return slots


def loop_refine(links, alpha, budget=1.0) -> List[List[int]]:
    """The original ``refine_by_interference`` loop."""
    m = additive_interference_matrix(links, alpha)
    order = argsort_by_length_nonincreasing(links.lengths)
    buckets: List[List[int]] = []
    for i in order:
        placed = False
        for bucket in buckets:
            induced = float(m[i, bucket].sum())
            if induced < budget:
                bucket.append(int(i))
                placed = True
                break
        if not placed:
            buckets.append([int(i)])
    return buckets


def topologies():
    return {
        "square-mst": AggregationTree.mst(uniform_square(60, side=10.0, rng=21)).links(),
        "clustered-mst": AggregationTree.mst(
            cluster_points(3, 15, cluster_std=0.4, side=8.0, rng=22)
        ).links(),
        "exponential-chain": AggregationTree.mst(exponential_line(14)).links(),
        "crowded": crowded_links(50, 3),
        "sparse": crowded_links(40, 4, side=30.0),
    }


TOPOLOGIES = topologies()


class TestFirstFitCallers:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_greedy_sinr_matches_the_loop(self, name, tau):
        links = TOPOLOGIES[name]
        scheme = ObliviousPower(tau, MODEL.alpha)
        vec = np.asarray(scheme.powers(links), dtype=float)
        schedule = greedy_sinr_schedule(twin(links), scheme, MODEL)
        want = loop_greedy_sinr_slots(twin(links), vec, MODEL)
        assert [list(s.link_indices) for s in schedule.slots] == want
        assert [list(s.powers) for s in schedule.slots] == [list(vec[s]) for s in want]

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("budget", [0.5, 1.0])
    def test_refinement_matches_the_loop(self, name, budget):
        links = TOPOLOGIES[name]
        got = refine_by_interference(twin(links), MODEL.alpha, budget=budget)
        assert got == loop_refine(twin(links), MODEL.alpha, budget=budget)
