"""What importing acide and running its commands loads, the package's public
names, the names the benchmark's traced run calls, and what README.md names
and prints."""

from __future__ import annotations

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import acide

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PUBLIC_NAMES = {
    "AdmissionBudget", "AdmissionOutcome", "AllocationPlan", "AssumptionViolation",
    "ExperimentRecord", "InsufficientBudgetError", "PeerProfile",
    "PlaybackReport", "ScenarioSpec", "SimulationTrace", "StreamParams",
    "ValidationReport", "admitted_vs_budget_curve",
    "block_size_profile", "default_scenario", "generate_peers",
    "join_cluster", "min_bandwidth", "playback_check", "run_admission_sweep", "simulate",
    "sort_peers", "validate_cluster",
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


# Every `acide.<name>` or `acide.<module>.<name>` that README.md spells out.
README_NAMES = sorted(set(re.findall(r"`(acide(?:\.\w+){1,2})", (ROOT / "README.md").read_text(encoding="utf-8"))))


@pytest.mark.parametrize("dotted", README_NAMES)
def test_every_name_the_readme_spells_resolves(dotted):
    parent, _, name = dotted.rpartition(".")
    try:
        importlib.import_module(dotted)
    except ModuleNotFoundError:
        assert hasattr(importlib.import_module(parent), name), f"README.md names {dotted}, which does not exist"


def test_readme_record_list_is_the_public_records():
    # A record deleted from the package must leave README's list, and a new one join it.
    listed = re.search(r"All records \(([^)]*)\)", (ROOT / "README.md").read_text(encoding="utf-8")).group(1)
    public = {name: getattr(acide, name) for name in acide.__all__}
    records = [name for name, value in public.items() if isinstance(value, type) and issubclass(value, tuple)]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(records)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        acide.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from acide import no_such_name  # noqa: F401


# Runs one command in a fresh interpreter and prints its exit code and every
# acide module loaded from before `import acide.cli` on, so that site hooks
# do not count and a module that cli imports at the top does.
COMMAND_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
from acide import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps([code, sorted(m for m in set(sys.modules) - before if m.startswith("acide"))]))
"""


def acide_modules_loaded_by(argv: list[str]) -> set[str]:
    """The acide modules that running `cli.main(argv)` loads, after it exits 0."""
    script = COMMAND_SCRIPT.format(src=str(SRC), argv=argv)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    code, loaded = json.loads(result.stdout)
    assert code == 0, result.stderr
    return set(loaded)


@pytest.fixture
def peers_csv(tmp_path):
    path = tmp_path / "peers.csv"
    path.write_text("id,u_bps,d_bps\na,10000,20000\nb,15000,30000\nc,20000,40000\n", encoding="utf-8")
    return str(path)


STREAM_FLAGS = ["--livestream-bps", "10000", "--delay-ms", "200"]


def test_admit_loads_neither_sim_nor_output(peers_csv):
    loaded = acide_modules_loaded_by(["admit", "--input", peers_csv, "--budget-bps", "15000", *STREAM_FLAGS])
    assert "acide.admission" in loaded
    assert not loaded & {"acide.sim", "acide.output", "acide.experiments"}


def test_simulate_without_output_loads_neither_admission_nor_output(peers_csv):
    loaded = acide_modules_loaded_by(["simulate", "--input", peers_csv, *STREAM_FLAGS])
    assert "acide.sim" in loaded
    assert not loaded & {"acide.admission", "acide.output", "acide.experiments"}


def test_simulate_with_output_loads_output(peers_csv, tmp_path):
    out = str(tmp_path / "trace.csv")
    loaded = acide_modules_loaded_by(["simulate", "--input", peers_csv, *STREAM_FLAGS, "--output", out])
    assert {"acide.sim", "acide.output"} <= loaded
    assert "acide.admission" not in loaded


BENCH_MODULES = ("cli", "core", "admission", "sim", "experiments")


def bench_references(path: Path) -> set[tuple[str, str]]:
    """Every (module, name) pair that `module.name` spells out in a bench file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in BENCH_MODULES
    }


def test_every_name_the_traced_benchmark_calls_exists():
    references = bench_references(ROOT / "bench" / "traced.py")
    assert {module for module, _ in references} == set(BENCH_MODULES)
    missing = [
        f"{module}.{name}"
        for module, name in sorted(references)
        if not hasattr(importlib.import_module(f"acide.{module}"), name)
    ]
    assert missing == []


# Runs one command in a fresh interpreter and prints the modules, of those
# named, that it loaded from before `import acide.cli` on.
LOADED_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
from acide import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps([code, sorted({names!r} & (set(sys.modules) - before))]))
"""


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--sizes", "5"],
        ["sweep", "--input", "{scenario}", "--sizes", "5", "--seed", "3", "--format", "json"],
        ["curve", "--sizes", "5", "--livestream-bps", "10000", "--output", "{out}"],
        ["profile", "--sizes", "5", "--livestream-bps", "10000", "--output", "{out}"],
    ],
    ids=["sweep", "sweep-input", "curve", "profile"],
)
def test_experiment_commands_load_neither_dataclasses_nor_inspect(tmp_path, command):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"cluster_sizes": [5, 10]}), encoding="utf-8")
    argv = [a.format(scenario=scenario, out=tmp_path / "out.csv") for a in command]
    script = LOADED_SCRIPT.format(src=str(SRC), argv=argv, names={"dataclasses", "inspect"})
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    code, loaded = json.loads(result.stdout)
    assert code == 0, result.stderr
    assert loaded == []


def test_readme_quick_start_prints_what_it_says(capsys):
    source = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "18000.0",
        "0.11111111111111112 0.08888888888888889",
        "True",
        "['b', 'c'] 0.9333333333333332",
    ]
