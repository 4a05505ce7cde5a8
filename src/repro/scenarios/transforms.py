"""The scenario registry: named dynamic transforms of a static config.

The sixth component registry.  A **scenario transform** wraps a static
:class:`~repro.api.config.PipelineConfig` into a timeline of epochs
(:class:`~repro.scenarios.timeline.EpochInstance`): node churn, mobility
drift, channel fading, or online frame arrivals.  Registering a
transform makes it available to the
:class:`~repro.scenarios.runner.ScenarioRunner`, the ``scenario`` CLI
subcommand and the sweep engine's ``scenario`` axis by name:

>>> from repro.scenarios.transforms import scenarios
>>> scenarios.names()
('static', 'churn', 'mobility', 'fading', 'arrivals')

Transforms are generators called as ``make(config, points, model,
epochs=..., rng=..., **params)`` where ``points`` is the *base* (static)
deployment and ``model`` the pipeline's resolved SINR model; they yield
one :class:`EpochInstance` per epoch and own all sequential state, so a
``(scenario, params, seed)`` triple is a pure description of the whole
timeline — which is what makes epochs content-addressable in the stage
store.

A transform with parameter values to check registers a ``check`` too,
called as ``check(model, **params)``: the runner calls it when it is
constructed, so a bad value is rejected before the baseline is built,
and the generator calls it again for callers that use it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Tuple

import numpy as np

from repro.api.registry import Registry
from repro.errors import ConfigurationError
from repro.geometry.point import PointSet
from repro.scenarios.timeline import EpochInstance
from repro.sinr.model import SINRModel
from repro.util.rng import RngLike, as_generator
from repro.util.validation import check_finite, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import PipelineConfig

__all__ = ["ScenarioSpec", "register_scenario", "scenarios"]


@dataclass(frozen=True)
class ScenarioSpec:
    """A named scenario transform.

    ``make(config, points, model, *, epochs, rng, **params)`` yields
    ``epochs`` :class:`EpochInstance`s derived from the static base
    instance.  ``check(model, **params)``, when given, raises a
    :class:`~repro.errors.ConfigurationError` for a bad parameter value
    before any stage runs.
    """

    name: str
    make: Callable[..., Iterator[EpochInstance]]
    description: str = ""
    check: Optional[Callable[..., Any]] = None


#: Scenario transforms, by name (the ``--scenario`` axis).
scenarios: Registry[ScenarioSpec] = Registry("scenario")


def register_scenario(
    name: str, *, description: str = "", check: Optional[Callable[..., Any]] = None
) -> Callable:
    """Decorator registering a timeline generator as a named scenario
    (with its parameter ``check``, if any)."""

    def decorator(make: Callable[..., Iterator[EpochInstance]]) -> Callable:
        scenarios.register(name, ScenarioSpec(name, make, description, check))
        return make

    return decorator


def _bounding_box(points: PointSet) -> tuple:
    """(lo, span) of the deployment, with degenerate axes widened to 1."""
    coords = np.asarray(points.coords, dtype=float)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return lo, span


def _require_probability(name: str, value: float) -> float:
    value = check_finite(name, value)
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
    return value


# ----------------------------------------------------------------------
# static
# ----------------------------------------------------------------------
@register_scenario("static", description="identity: every epoch is the base instance")
def _static(
    config: "PipelineConfig",
    points: PointSet,
    model: SINRModel,
    *,
    epochs: int,
    rng: RngLike = None,
) -> Iterator[EpochInstance]:
    """The identity scenario — the regression anchor.

    Every epoch is the unmodified base instance, so every stage of every
    epoch resolves to the *same* store entries as the static pipeline
    and the output is bit-identical to a plain run.
    """
    ids = np.arange(len(points))
    for index in range(1, epochs + 1):
        yield EpochInstance(
            index=index,
            points=points,
            node_ids=ids,
            sink=config.sink,
            model=model,
            num_frames=config.num_frames,
        )


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
def _churn_params(
    model: SINRModel, *, p_leave: float = 0.1, p_join: Optional[float] = None
) -> Tuple[float, float]:
    """Checked ``(p_leave, p_join)``; ``p_join`` defaults to ``p_leave``."""
    p_leave = _require_probability("p_leave", p_leave)
    return p_leave, p_leave if p_join is None else _require_probability("p_join", p_join)


@register_scenario(
    "churn",
    description="Bernoulli departures/arrivals per epoch, tree repaired incrementally",
    check=_churn_params,
)
def _churn(
    config: "PipelineConfig",
    points: PointSet,
    model: SINRModel,
    *,
    epochs: int,
    rng: RngLike = None,
    p_leave: float = 0.1,
    p_join: Optional[float] = None,
) -> Iterator[EpochInstance]:
    """Node churn: each non-sink node departs with probability
    ``p_leave`` per epoch; ``Binomial(n0, p_join)`` fresh nodes arrive
    uniformly in the base deployment's bounding box (``p_join`` defaults
    to ``p_leave`` so the population stays balanced).  The sink never
    departs.  Trees are repaired incrementally (kept edges + minimum
    reconnection), not rebuilt."""
    p_leave, p_join = _churn_params(model, p_leave=p_leave, p_join=p_join)
    gen = as_generator(rng)
    coords = np.array(points.coords, dtype=float)
    lo, span = _bounding_box(points)
    ids = np.arange(len(points))
    next_id = len(points)
    sink_id = int(ids[config.sink])
    n_base = len(points)
    for index in range(1, epochs + 1):
        keep = gen.uniform(size=len(ids)) >= p_leave
        keep[ids == sink_id] = True
        if keep.sum() < 2:
            # Never churn below a schedulable instance (>= 1 link).
            keep[:] = True
        n_arrive = int(gen.binomial(n_base, p_join)) if p_join > 0 else 0
        changed = bool((~keep).any() or n_arrive > 0)
        coords = coords[keep]
        ids = ids[keep]
        if n_arrive > 0:
            fresh = lo + gen.uniform(size=(n_arrive, coords.shape[1])) * span
            coords = np.vstack([coords, fresh])
            ids = np.concatenate([ids, np.arange(next_id, next_id + n_arrive)])
            next_id += n_arrive
        yield EpochInstance(
            index=index,
            points=PointSet(coords.copy(), check=False),
            node_ids=ids.copy(),
            sink=int(np.flatnonzero(ids == sink_id)[0]),
            model=model,
            num_frames=config.num_frames,
            changed=changed,
            scenario_scoped=True,
            tree_policy="repair",
        )


# ----------------------------------------------------------------------
# mobility
# ----------------------------------------------------------------------
def _mobility_params(model: SINRModel, *, speed: float = 0.1, rebuild: bool = False) -> float:
    """Checked ``speed`` (``rebuild`` takes any value)."""
    return check_positive("speed", speed)


@register_scenario(
    "mobility",
    description="random-waypoint drift per epoch with re-derived links",
    check=_mobility_params,
)
def _mobility(
    config: "PipelineConfig",
    points: PointSet,
    model: SINRModel,
    *,
    epochs: int,
    rng: RngLike = None,
    speed: float = 0.1,
    rebuild: bool = False,
) -> Iterator[EpochInstance]:
    """Random-waypoint mobility: every node (except the sink, a fixed
    base station) moves toward a private waypoint by ``speed`` times the
    bounding-box diagonal per epoch, drawing a fresh waypoint on
    arrival.  With ``rebuild=False`` (default) the tree *structure* is
    kept and only link geometry re-derived — measuring how a certified
    schedule degrades as its links stretch; ``rebuild=True`` re-runs the
    tree builder each epoch instead."""
    speed = _mobility_params(model, speed=speed)
    gen = as_generator(rng)
    coords = np.array(points.coords, dtype=float)
    lo, span = _bounding_box(points)
    diagonal = float(np.linalg.norm(span))
    step = speed * diagonal
    n = len(points)
    ids = np.arange(n)
    sink = config.sink
    sink_position = coords[sink].copy()
    waypoints = lo + gen.uniform(size=(n, coords.shape[1])) * span
    for index in range(1, epochs + 1):
        delta = waypoints - coords
        dist = np.linalg.norm(delta, axis=1)
        arrived = dist <= step
        moving = ~arrived & (dist > 0)
        coords[arrived] = waypoints[arrived]
        coords[moving] += delta[moving] * (step / dist[moving])[:, None]
        coords[sink] = sink_position
        if arrived.any():
            waypoints[arrived] = (
                lo + gen.uniform(size=(int(arrived.sum()), coords.shape[1])) * span
            )
        yield EpochInstance(
            index=index,
            points=PointSet(coords.copy(), check=False),
            node_ids=ids,
            sink=sink,
            model=model,
            num_frames=config.num_frames,
            changed=True,
            scenario_scoped=True,
            tree_policy="rebuild" if rebuild else "reuse",
        )


# ----------------------------------------------------------------------
# fading
# ----------------------------------------------------------------------
def _fading_params(model: SINRModel, *, sigma: float = 0.2, target: str = "beta") -> float:
    """Checked ``sigma``; ``target`` must be ``beta``, or ``noise`` on a
    noisy ``model``."""
    sigma = check_positive("sigma", sigma)
    if target not in ("beta", "noise"):
        raise ConfigurationError(
            f"fading target must be 'beta' or 'noise', got {target!r}"
        )
    if target == "noise" and model.noise == 0:
        raise ConfigurationError(
            "fading target 'noise' scales the noise floor, but the model is "
            "noiseless (noise=0) — every epoch would equal the baseline; "
            "use target='beta' or a model with noise > 0"
        )
    return sigma


@register_scenario(
    "fading",
    description="epoch-wise lognormal gain perturbation through the SINR model",
    check=_fading_params,
)
def _fading(
    config: "PipelineConfig",
    points: PointSet,
    model: SINRModel,
    *,
    epochs: int,
    rng: RngLike = None,
    sigma: float = 0.2,
    target: str = "beta",
) -> Iterator[EpochInstance]:
    """Channel fading: each epoch scales the decoding threshold ``beta``
    (``target="beta"``, a lognormal fade margin) or the noise floor
    (``target="noise"``, rejected for noiseless models — scaling a zero
    floor would silently measure the unperturbed baseline) by
    ``exp(N(0, sigma))``.  The deployment and tree are untouched — every
    epoch reuses the base store entries — but schedules re-certify under
    the perturbed model, and the *baseline* schedule is additionally
    checked against each epoch's model (stale violations: the cost of
    not re-scheduling)."""
    sigma = _fading_params(model, sigma=sigma, target=target)
    gen = as_generator(rng)
    ids = np.arange(len(points))
    for index in range(1, epochs + 1):
        factor = float(np.exp(gen.normal(0.0, sigma)))
        if target == "beta":
            epoch_model = model.with_beta(model.beta * factor)
        else:
            epoch_model = model.with_noise(model.noise * factor)
        yield EpochInstance(
            index=index,
            points=points,
            node_ids=ids,
            sink=config.sink,
            model=epoch_model,
            num_frames=config.num_frames,
        )


# ----------------------------------------------------------------------
# arrivals
# ----------------------------------------------------------------------
def _arrivals_params(
    model: SINRModel, *, rate: float = 2.0, load: float = 1.0
) -> Tuple[float, float]:
    """Checked ``(rate, load)``."""
    return check_positive("rate", rate), check_positive("load", load)


@register_scenario(
    "arrivals",
    description="online Poisson frame arrivals instead of all-at-start simulation",
    check=_arrivals_params,
)
def _arrivals(
    config: "PipelineConfig",
    points: PointSet,
    model: SINRModel,
    *,
    epochs: int,
    rng: RngLike = None,
    rate: float = 2.0,
    load: float = 1.0,
) -> Iterator[EpochInstance]:
    """Online frame arrivals: epoch ``e`` injects ``Poisson(rate)``
    frames into the *unchanged* schedule, spaced ``round(period /
    load)`` slots apart — ``load > 1`` overdrives the certified rate and
    the per-epoch backlog/stability fields measure the damage.  All
    stages reuse the base store entries; only the simulation varies."""
    rate, load = _arrivals_params(model, rate=rate, load=load)
    gen = as_generator(rng)
    ids = np.arange(len(points))
    for index in range(1, epochs + 1):
        yield EpochInstance(
            index=index,
            points=points,
            node_ids=ids,
            sink=config.sink,
            model=model,
            num_frames=int(gen.poisson(rate)),
            load=load,
        )
