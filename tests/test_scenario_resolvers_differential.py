"""Scenario epochs through :mod:`repro.store.stages` against the
runner's own resolvers they replaced.

:class:`~repro.scenarios.runner.ScenarioRunner` resolves every epoch
stage with ``stages.deployment_for``/``tree_for``/``schedule_for``;
``tests/oracles/scenario_resolvers.py`` keeps the earlier ``run`` loop
and its three ``_resolve_*`` methods.  Both must return the same
``ScenarioResult``, field by field, the per-epoch ``store`` counters
included, with one exception: a *base-keyed* epoch (no scenario
signature) looks the links stage up once instead of twice, so its
``links`` hits are lower by exactly one.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.api.config import PipelineConfig
from repro.scenarios.runner import ScenarioRunner
from repro.store.store import StageStore
from oracles.scenario_resolvers import ResolverScenarioRunner

CONFIG = PipelineConfig(topology="square", n=30, seed=3, power="oblivious")
SCHEDULERS = ("certified", "incremental-certified")

#: ``(scenario, params, scenario_seed)``.  The two ``p_leave=0.02``
#: churn timelines are [no-op, no-op, change, change] (seed 2: two
#: base-keyed epochs, then epoch keys) and [change, no-op, no-op,
#: change] (seed 0: no-op epochs that keep the previous epoch key).
TIMELINES = [
    ("static", {}, 3),
    ("churn", {"p_leave": 0.08}, 3),
    ("churn", {"p_leave": 0.02}, 2),
    ("churn", {"p_leave": 0.02}, 0),
    ("mobility", {"speed": 0.05}, 3),
    ("mobility", {"speed": 0.05, "rebuild": True}, 3),
    ("fading", {"sigma": 0.15}, 3),
    ("arrivals", {"rate": 6.0, "load": 2.0}, 3),
]
IDS = [f"{s}-{'-'.join(map(str, p.values())) or 'base'}-seed{seed}" for s, p, seed in TIMELINES]


def base_keyed(runner: ScenarioRunner) -> List[bool]:
    """Per epoch, whether it resolves through the base stage keys: no
    epoch so far has a derived deployment that changed."""
    timeline = runner.spec.make(
        runner.config,
        runner.pipeline.deploy(),
        runner.pipeline.model,
        epochs=runner.epochs,
        rng=runner.scenario_seed,
        **runner.params,
    )
    out, base = [], True
    for inst in timeline:
        base = base and not (inst.scenario_scoped and inst.changed)
        out.append(base)
    return out


def assert_same_result(new, old, base: List[bool]) -> None:
    """``new`` equals ``old`` field by field; ``links`` hits are lower
    by one on each base-keyed epoch and every other counter is equal."""
    new_json, old_json = new.to_json_dict(), old.to_json_dict()
    assert new_json.keys() == old_json.keys()
    for name in new_json:
        if name != "epoch_results":
            assert new_json[name] == old_json[name], name
    assert len(new_json["epoch_results"]) == len(base)
    for e_new, e_old, is_base in zip(
        new_json["epoch_results"], old_json["epoch_results"], base
    ):
        assert e_new.keys() == e_old.keys()
        for name in e_new:
            if name != "store":
                assert e_new[name] == e_old[name], (e_new["epoch"], name)
        expected = {stage: dict(c) for stage, c in e_old["store"].items()}
        if is_base:
            expected["links"]["hits"] -= 1
        assert e_new["store"] == expected, e_new["epoch"]


def run_pair(config, scenario, params, seed, new_store, old_store, epochs=4):
    """Both runners on their own stores: ``(runner, new, old)``."""
    new_runner = ScenarioRunner(
        config, scenario, epochs=epochs, params=params, scenario_seed=seed,
        store=new_store,
    )
    old_runner = ResolverScenarioRunner(
        config, scenario, epochs=epochs, params=params, scenario_seed=seed,
        store=old_store,
    )
    return new_runner, new_runner.run(), old_runner.run()


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("scenario,params,seed", TIMELINES, ids=IDS)
def test_epochs_match_the_resolvers(scenario, params, seed, scheduler):
    config = CONFIG.replace(scheduler=scheduler)
    runner, new, old = run_pair(
        config, scenario, params, seed, StageStore(), StageStore()
    )
    base = base_keyed(runner)
    if scenario in ("static", "fading", "arrivals"):
        assert all(base)
    assert_same_result(new, old, base)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_rerun_on_a_warm_store_matches(scheduler):
    """A second run on the same store resolves every stage as a hit."""
    config = CONFIG.replace(scheduler=scheduler)
    new_store, old_store = StageStore(), StageStore()
    for _ in range(2):
        runner, new, old = run_pair(
            config, "churn", {"p_leave": 0.02}, 2,
            new_store=new_store, old_store=old_store,
        )
        assert_same_result(new, old, base_keyed(runner))
    assert all(
        c["builds"] == 0 for e in new.epoch_results for c in e.store.values()
    )


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize(
    "scenario,params,seed",
    [TIMELINES[1], TIMELINES[4], TIMELINES[6]],
    ids=[IDS[1], IDS[4], IDS[6]],
)
def test_disk_tier_resume_matches(tmp_path, scenario, params, seed, scheduler):
    """A 2-epoch run persists to a disk tier; a 4-epoch run on a fresh
    store over the same directory replays the prefix from disk and
    builds the rest.  Both runs match the resolvers' on their own
    directory, disk counters included."""
    config = CONFIG.replace(scheduler=scheduler)
    new_dir, old_dir = tmp_path / "new", tmp_path / "old"
    for epochs in (2, 4):
        runner, new, old = run_pair(
            config, scenario, params, seed,
            StageStore(disk=new_dir), StageStore(disk=old_dir), epochs=epochs,
        )
        assert_same_result(new, old, base_keyed(runner))
    assert all(e.store["schedule"]["builds"] == 0 for e in new.epoch_results[:2])
    assert sum(
        c["disk_hits"] for e in new.epoch_results for c in e.store.values()
    ) > 0
