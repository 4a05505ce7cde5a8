"""Epoch timelines: the unit of work of a dynamic scenario.

A scenario transform (:mod:`repro.scenarios.transforms`) turns a static
:class:`~repro.api.config.PipelineConfig` into a sequence of
:class:`EpochInstance`s — one per epoch, each describing the *effective*
instance at that point of the timeline: the deployment (possibly churned
or drifted), the persistent node identities, the sink's current index,
the (possibly faded) SINR model, and the frame load to simulate.

Transforms are generators, so sequential state (churn survivors,
waypoint positions) evolves naturally from epoch to epoch; the
:class:`~repro.scenarios.runner.ScenarioRunner` consumes the timeline
and mediates every stage through the content-addressed store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.point import PointSet
from repro.sinr.model import SINRModel
from repro.util.validation import check_positive

__all__ = ["EpochInstance", "TREE_POLICIES"]

#: How an epoch obtains its aggregation tree:
#:
#: * ``reuse``   — keep the previous epoch's tree structure (re-deriving
#:   link geometry when coordinates moved);
#: * ``repair``  — incremental repair: keep surviving edges, reconnect
#:   the forest with minimum-length edges (churn);
#: * ``rebuild`` — run the configured tree builder from scratch.
TREE_POLICIES = ("reuse", "repair", "rebuild")


@dataclass
class EpochInstance:
    """The effective instance of one scenario epoch.

    Attributes
    ----------
    index:
        1-based epoch number.
    points:
        The deployment in force this epoch.
    node_ids:
        Persistent node identities aligned with ``points`` — stable
        across churn/mobility so tree edges can be compared between
        epochs (repair cost) even as indices shift.
    sink:
        Index of the sink *within this epoch's points* (the sink never
        departs; its index may move as other nodes do).
    model:
        The SINR model in force (perturbed by ``fading``).
    num_frames:
        Convergecast frames to simulate this epoch (``arrivals`` draws
        this online; other scenarios inherit ``config.num_frames``).
    load:
        Injection-rate multiplier for the simulation: frames are
        injected every ``round(period / load)`` slots, so ``load > 1``
        overdrives the schedule (backlog growth is the measurement).
    changed:
        Whether ``points`` differ from the previous epoch's (drives
        artifact reuse for no-op churn epochs).
    scenario_scoped:
        Whether this epoch's deployment is *derived* (not buildable from
        the config) and must therefore be stored under scenario-scoped
        cache keys (:func:`repro.store.keys.deploy_key` with a scenario
        signature).
    tree_policy:
        One of :data:`TREE_POLICIES`.
    """

    index: int
    points: PointSet
    node_ids: np.ndarray
    sink: int
    model: SINRModel
    num_frames: int = 0
    load: float = 1.0
    changed: bool = False
    scenario_scoped: bool = False
    tree_policy: str = "reuse"

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ConfigurationError(f"epoch index must be >= 1, got {self.index}")
        if self.tree_policy not in TREE_POLICIES:
            raise ConfigurationError(
                f"unknown tree policy {self.tree_policy!r}; "
                f"valid: {', '.join(TREE_POLICIES)}"
            )
        self.node_ids = np.asarray(self.node_ids, dtype=int)
        if len(self.node_ids) != len(self.points):
            raise ConfigurationError(
                f"node_ids length {len(self.node_ids)} does not match "
                f"{len(self.points)} points"
            )
        if not 0 <= self.sink < len(self.points):
            raise ConfigurationError(
                f"sink index {self.sink} out of range for {len(self.points)} points"
            )
        if self.num_frames < 0:
            raise ConfigurationError(f"num_frames must be >= 0, got {self.num_frames}")
        self.load = check_positive("load", self.load)
