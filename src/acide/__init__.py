"""Bandwidth planning, admission control, and distribution simulation for P2P livestream clusters.

The public names below are loaded on first use (PEP 562), so importing the
package, or one of its modules such as acide.cli, loads only the modules
that are asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the acide module that defines it.
_EXPORTS = {
    "AdmissionBudget": "admission",
    "AdmissionOutcome": "admission",
    "AllocationPlan": "core",
    "AssumptionViolation": "core",
    "ExperimentRecord": "experiments",
    "InsufficientBudgetError": "core",
    "PeerProfile": "core",
    "PlaybackReport": "sim",
    "ScenarioSpec": "experiments",
    "SimulationTrace": "sim",
    "StreamParams": "core",
    "ValidationReport": "core",
    "admitted_vs_budget_curve": "experiments",
    "block_size_profile": "experiments",
    "default_scenario": "experiments",
    "generate_peers": "experiments",
    "join_cluster": "admission",
    "min_bandwidth": "core",
    "playback_check": "sim",
    "run_admission_sweep": "experiments",
    "simulate": "sim",
    "sort_peers": "core",
    "validate_cluster": "core",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
