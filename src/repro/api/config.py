"""The declarative pipeline configuration.

A :class:`PipelineConfig` is the full description of one end-to-end run
— every component chosen *by registry name* plus the numeric model and
instance parameters.  It validates eagerly (unknown names fail at
construction, listing the valid choices) and round-trips losslessly
through plain dicts, which is how run provenance is persisted.

>>> from repro.api.config import PipelineConfig
>>> cfg = PipelineConfig(topology="grid", n=9, tree="matching")
>>> cfg.tree
'matching'
>>> PipelineConfig.from_dict(cfg.to_dict()) == cfg
True
>>> PipelineConfig(tree="steiner")
Traceback (most recent call last):
    ...
repro.errors.ConfigurationError: unknown tree builder 'steiner'; available: mst, matching, knn-mst
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional

from repro.api.components import power_schemes, schedulers, topologies, trees
from repro.backend import check_backend
from repro.constants import DEFAULT_ALPHA, DEFAULT_BETA
from repro.errors import ConfigurationError
from repro.scheduling.builder import PowerMode
from repro.sinr.model import SINRModel
from repro.util.validation import check_finite

__all__ = ["PipelineConfig"]

#: Keyword arguments the pipeline (or, for a scenario transform's
#: ``params``, the scenario runner) passes to each component itself,
#: which are therefore never valid keys of the matching mapping.
_PIPELINE_KWARGS: Dict[str, FrozenSet[str]] = {
    "topology_params": frozenset({"rng"}),
    "tree_params": frozenset({"sink"}),
    "scheduler_params": frozenset({"prev_state", "link_ids"}),
    "params": frozenset({"epochs", "rng"}),
}


def _check_params(
    field_name: str,
    params: Mapping[str, Any],
    build: Callable[..., Any],
    name: str,
) -> None:
    """:class:`ConfigurationError` unless every key of ``params`` is a
    keyword-only parameter of ``build`` (component ``name``) that the
    caller does not pass itself; a ``build`` taking ``**kwargs`` accepts
    any key."""
    if not params:
        return
    parameters = inspect.signature(build).parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
        return
    valid = [
        p.name
        for p in parameters
        if p.kind is inspect.Parameter.KEYWORD_ONLY
        and p.name not in _PIPELINE_KWARGS[field_name]
    ]
    unknown = [key for key in params if key not in valid]
    if unknown:
        raise ConfigurationError(
            f"unknown {field_name} key(s) {', '.join(map(repr, unknown))} for "
            f"{name!r}; available: {', '.join(valid) or 'none'}"
        )


@dataclass(frozen=True)
class PipelineConfig:
    """One run of the registry-backed pipeline, as data.

    Parameters
    ----------
    topology, tree, power, scheduler:
        Registry names selecting the deployment family, aggregation
        tree, power regime and link scheduler.
    n, seed, sink:
        Instance size, deployment/simulation seed, and sink node index.
    alpha, beta:
        SINR model parameters (``alpha > 2``, ``beta > 0``).
    gamma, delta, tau:
        Optional conflict-graph / power-scheme constants.  ``None``
        keeps each scheduler's default; they are forwarded only to
        schedulers that declare them (see
        :attr:`~repro.api.components.SchedulerSpec.constants`).
    num_frames:
        Convergecast frames to simulate (0 = schedule only).
    backend:
        Numeric-backend name (:mod:`repro.backend`) for the kernel
        math.  Backends are bit-identical by contract, so this
        field changes performance characteristics only — it never
        splits a stage cache key (:mod:`repro.store.keys`).
    topology_params, tree_params, scheduler_params:
        Extra keyword arguments for the chosen components (e.g.
        ``tree_params={"k": 4}`` for ``knn-mst``).
    """

    topology: str = "square"
    n: int = 100
    seed: int = 0
    sink: int = 0
    tree: str = "mst"
    power: str = "global"
    scheduler: str = "certified"
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    gamma: Optional[float] = None
    delta: Optional[float] = None
    tau: Optional[float] = None
    num_frames: int = 0
    backend: str = "dense-numpy"
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    tree_params: Mapping[str, Any] = field(default_factory=dict)
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalise: PowerMode enums are accepted for ``power``, and the
        # params mappings are copied to plain dicts.
        if isinstance(self.power, PowerMode):
            object.__setattr__(self, "power", self.power.value)
        for name in ("topology_params", "tree_params", "scheduler_params"):
            value = getattr(self, name)
            if not isinstance(value, Mapping):
                raise ConfigurationError(f"{name} must be a mapping, got {value!r}")
            object.__setattr__(self, name, dict(value))
        # Eager name validation: every component must resolve *now*, and
        # so must the names in its params mapping.
        topology = topologies.get(self.topology)
        _check_params("topology_params", self.topology_params, topology.build, topology.name)
        tree = trees.get(self.tree)
        _check_params("tree_params", self.tree_params, tree.build, tree.name)
        power_schemes.get(self.power)
        scheduler = schedulers.get(self.scheduler)
        _check_params(
            "scheduler_params", self.scheduler_params, scheduler.build, scheduler.name
        )
        check_backend(self.backend)
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"n must be a positive int, got {self.n!r}")
        if not isinstance(self.sink, int) or self.sink < 0:
            raise ConfigurationError(f"sink must be a non-negative int, got {self.sink!r}")
        if self.num_frames < 0:
            raise ConfigurationError(f"num_frames must be >= 0, got {self.num_frames}")
        # Mirror the downstream component constraints so misconfigured
        # constants fail here, not mid-pipeline after deploy/tree work.
        for name in ("gamma", "delta"):
            if getattr(self, name) is not None:
                check_finite(name, getattr(self, name))
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {self.gamma}")
        if self.delta is not None and self.delta < 0:
            raise ConfigurationError(f"delta must be non-negative, got {self.delta}")
        if self.tau is not None and not 0.0 <= self.tau <= 1.0:
            raise ConfigurationError(f"tau must lie in [0, 1], got {self.tau}")
        # Delegate alpha/beta validation to the model itself.
        SINRModel(alpha=self.alpha, beta=self.beta)

    # ------------------------------------------------------------------
    @property
    def power_mode(self) -> PowerMode:
        """The :class:`PowerMode` behind the configured power scheme."""
        return power_schemes.get(self.power).mode

    def replace(self, **changes: Any) -> "PipelineConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; the provenance payload."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown PipelineConfig fields: {sorted(unknown)}; "
                f"valid fields: {sorted(known)}"
            )
        return cls(**dict(data))
