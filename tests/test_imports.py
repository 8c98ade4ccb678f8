"""What importing acide loads, and the package's public names."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import acide

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = {
    "AdmissionBudget", "AdmissionOutcome", "AllocationPlan", "AssumptionViolation",
    "ExperimentRecord", "InfeasibleClusterError", "InsufficientBudgetError", "PeerProfile",
    "PlaybackReport", "ScenarioSpec", "SimulationTrace", "StreamParams", "TransferEvent",
    "ValidationReport", "admitted_upper_bound", "admitted_vs_budget_curve",
    "allocated_bandwidth", "baseline_bandwidths", "block_size_profile", "build_schedule",
    "default_scenario", "generate_peers", "join_cluster", "load_scenario", "min_bandwidth",
    "playback_check", "run_admission_sweep", "simulate", "sort_peers", "validate_cluster",
}


def test_cli_import_leaves_out_dataclasses_and_experiments():
    # Compared against what the interpreter had loaded before, so that modules
    # a site hook imports at start-up do not count against acide.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules); "
        "import acide.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'acide.experiments'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.split() == []


def test_public_names_are_unchanged():
    assert set(acide.__all__) == PUBLIC_NAMES
    assert len(acide.__all__) == len(PUBLIC_NAMES)


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_every_public_name_resolves(name):
    value = getattr(acide, name)
    assert value.__name__ == name
    assert name in dir(acide)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        acide.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from acide import no_such_name  # noqa: F401
