"""Bandwidth planning, admission control, and distribution simulation for P2P livestream clusters."""

from acide.admission import (
    AdmissionBudget,
    AdmissionOutcome,
    InsufficientBudgetError,
    admitted_upper_bound,
    join_cluster,
)
from acide.core import (
    AllocationPlan,
    AssumptionViolation,
    InfeasibleClusterError,
    PeerProfile,
    StreamParams,
    ValidationReport,
    allocated_bandwidth,
    min_bandwidth,
    sort_peers,
    validate_cluster,
)
from acide.experiments import (
    ExperimentRecord,
    ScenarioSpec,
    admitted_vs_budget_curve,
    baseline_bandwidths,
    block_size_profile,
    default_scenario,
    generate_peers,
    load_scenario,
    run_admission_sweep,
)
from acide.sim import (
    PlaybackReport,
    SimulationTrace,
    TransferEvent,
    build_schedule,
    playback_check,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissionBudget",
    "AdmissionOutcome",
    "AllocationPlan",
    "AssumptionViolation",
    "ExperimentRecord",
    "InfeasibleClusterError",
    "InsufficientBudgetError",
    "PeerProfile",
    "PlaybackReport",
    "ScenarioSpec",
    "SimulationTrace",
    "StreamParams",
    "TransferEvent",
    "ValidationReport",
    "admitted_upper_bound",
    "admitted_vs_budget_curve",
    "allocated_bandwidth",
    "baseline_bandwidths",
    "block_size_profile",
    "build_schedule",
    "default_scenario",
    "generate_peers",
    "join_cluster",
    "load_scenario",
    "min_bandwidth",
    "playback_check",
    "run_admission_sweep",
    "simulate",
    "sort_peers",
    "validate_cluster",
]
