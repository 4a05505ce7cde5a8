"""repro — Wireless Aggregation at Nearly Constant Rate.

A from-scratch Python reproduction of Halldorsson & Tonoyan,
*Wireless Aggregation at Nearly Constant Rate* (ICDCS 2018,
arXiv:1712.03053): convergecast scheduling in the physical (SINR)
interference model with near-constant aggregation rate.

Quickstart
----------
>>> from repro import SUM, Pipeline, PipelineConfig, SINRModel, uniform_square
>>> points = uniform_square(100, rng=0)
>>> config = PipelineConfig(n=len(points), power="global", num_frames=5, seed=0)
>>> artifact = Pipeline(config, model=SINRModel()).run(points, function=SUM)
>>> artifact.simulation.values_correct
True
>>> artifact.num_slots  # doctest: +SKIP
8
"""

from repro._version import __version__
from repro.aggregation import (
    COUNT,
    MAX,
    MEAN,
    MIN,
    SUM,
    AggregationFunction,
    AggregationSimulator,
    median_via_counting,
)
from repro.api import (
    Finding,
    LintReport,
    Pipeline,
    PipelineConfig,
    Registry,
    RunArtifact,
    ScenarioResult,
    ScenarioRunner,
    SimulationResult,
    lint_paths,
    lint_rules,
    register_lint_rule,
    register_scenario,
)
from repro.conflict import (
    ConflictGraph,
    arbitrary_graph,
    g1_graph,
    oblivious_graph,
)
from repro.core import (
    compare_power_modes,
    predicted_slots,
    predicted_slots_cor1,
    predicted_slots_global,
    predicted_slots_oblivious,
)
from repro.cluster import Orchestrator, Worker
from repro.errors import (
    ClusterError,
    ConfigurationError,
    ConstructionError,
    DegenerateLinkError,
    GeometryError,
    InfeasibleError,
    LinkError,
    ProtocolError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from repro.jobs import JobService
from repro.geometry import (
    PointSet,
    cluster_points,
    cluster_points_total,
    exponential_line,
    grid_points,
    length_diversity,
    line_points,
    make_deployment,
    uniform_disk,
    uniform_square,
)
from repro.links import Link, LinkSet
from repro.lowerbounds import (
    DoublyExponentialChain,
    MstSuboptimalFamily,
    RecursiveLogStarInstance,
)
from repro.power import (
    GlobalPowerSolver,
    LinearPower,
    ObliviousPower,
    UniformPower,
    mean_power,
)
from repro.scheduling import (
    DistributedSchedulingSimulator,
    PowerMode,
    Schedule,
    ScheduleBuilder,
    greedy_sinr_schedule,
    protocol_model_schedule,
    trivial_tdma_schedule,
)
from repro.runner import CellResult, SweepEngine, SweepReport, SweepSpec
from repro.sinr import SINRModel
from repro.spanning import AggregationTree, mst_edges
from repro.store import StageStore, get_default_store

__all__ = [
    "AggregationFunction",
    "AggregationSimulator",
    "AggregationTree",
    "COUNT",
    "CellResult",
    "ClusterError",
    "ConfigurationError",
    "ConflictGraph",
    "ConstructionError",
    "DegenerateLinkError",
    "DistributedSchedulingSimulator",
    "DoublyExponentialChain",
    "Finding",
    "GeometryError",
    "GlobalPowerSolver",
    "InfeasibleError",
    "JobService",
    "LinearPower",
    "Link",
    "LinkError",
    "LinkSet",
    "LintReport",
    "MAX",
    "MEAN",
    "MIN",
    "MstSuboptimalFamily",
    "ObliviousPower",
    "Orchestrator",
    "Pipeline",
    "PipelineConfig",
    "PointSet",
    "PowerMode",
    "ProtocolError",
    "RecursiveLogStarInstance",
    "Registry",
    "ReproError",
    "RunArtifact",
    "SINRModel",
    "SUM",
    "ScenarioResult",
    "ScenarioRunner",
    "Schedule",
    "ScheduleBuilder",
    "ScheduleError",
    "SimulationError",
    "SimulationResult",
    "StageStore",
    "SweepEngine",
    "SweepReport",
    "SweepSpec",
    "UniformPower",
    "Worker",
    "__version__",
    "arbitrary_graph",
    "cluster_points",
    "cluster_points_total",
    "compare_power_modes",
    "exponential_line",
    "g1_graph",
    "get_default_store",
    "greedy_sinr_schedule",
    "grid_points",
    "length_diversity",
    "line_points",
    "lint_paths",
    "lint_rules",
    "make_deployment",
    "mean_power",
    "median_via_counting",
    "mst_edges",
    "oblivious_graph",
    "predicted_slots",
    "predicted_slots_cor1",
    "predicted_slots_global",
    "predicted_slots_oblivious",
    "protocol_model_schedule",
    "register_lint_rule",
    "register_scenario",
    "trivial_tdma_schedule",
    "uniform_disk",
    "uniform_square",
]
