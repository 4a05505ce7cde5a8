"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError`, so callers
can catch one type to handle any failure originating inside the library
while letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Invalid pointset or geometric configuration.

    Raised for duplicate points, empty pointsets, dimension mismatches,
    or coordinates that are not finite.
    """


class LinkError(ReproError):
    """Invalid link or link-set configuration (e.g. zero-length link)."""


class DegenerateLinkError(LinkError):
    """A link of zero (or otherwise non-positive) length: sender and
    receiver coincide.

    Degenerate links make the conflict-threshold ratio ``l_max / l_min``
    (and every ``l^alpha`` path-loss term) undefined, so they are
    rejected eagerly at :class:`~repro.links.linkset.LinkSet` / ``Link``
    construction instead of surfacing later as numpy divide warnings and
    NaN adjacency inside the kernel layer.
    """


class InfeasibleError(ReproError):
    """A set of links cannot be made feasible under the requested model.

    This signals a genuine physical impossibility (e.g. requesting a
    power assignment for a set whose affectance spectral radius is at
    least one), not a bug.
    """


class ScheduleError(ReproError):
    """A schedule violates its contract (non-feasible slot, missing link,
    or a coloring that is not proper for its conflict graph)."""


class SimulationError(ReproError):
    """The aggregation simulator detected an inconsistent state, such as
    a frame aggregated at the sink with missing contributions."""


class ConstructionError(ReproError):
    """A lower-bound instance cannot be built with the given parameters
    (e.g. coordinates would overflow IEEE doubles; see DESIGN.md S1)."""


class ConfigurationError(ReproError):
    """Invalid model or protocol configuration parameters."""


class ClusterError(ReproError):
    """A distributed-sweep failure: a peer is unreachable after the
    reconnect budget, a message timed out, or the orchestrator gave up
    on a run (see :mod:`repro.cluster`)."""


class ProtocolError(ClusterError):
    """A malformed or incompatible cluster wire message: bad framing,
    an unknown message type, or a schema-version mismatch
    (see :mod:`repro.cluster.protocol`)."""
