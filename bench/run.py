"""End-to-end benchmark of the acide CLI, one command process at a time.

    python3 bench/run.py --workload plan-verify --seed 1 --seconds 25 --trace 0

With --trace 0, a closed loop with one client and no threads spawns one
`python -m acide.cli <command>` at a time from the checkout's src/, times
it from spawn to exit, reads its CPU time and peak RSS from os.wait4, and
checks its output against answers the benchmark computes itself
(checks.py). With --trace 1 it runs the separate in-process traced run
instead (traced.py). Either way the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Per-run files (inputs, command outputs, samples, spans) go under
bench/runs/<workload>-seed<seed>-trace<0|1>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402


def command_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ACIDE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict[str, str], stderr_log) -> tuple[float, float, float, int, str]:
    """Run one command; return (wall s, cpu s, peak RSS MB, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=stderr_log, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stdout


def acide_argv(case: workloads.Case) -> list[str]:
    return [sys.executable, "-m", "acide.cli", *case.argv]


def setup(workload: str, seed: int, run_dir: Path, env, stderr_log) -> list[workloads.Case]:
    """Write the seeded inputs and run one untimed warm-up command.

    The warm-up's output is not checked here: the timed loop starts with
    the same command and checks it.
    """
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)
    cases = workloads.make_cases(workload, seed, run_dir / "inputs", run_dir / "out")
    spawn(acide_argv(cases[0]), env, stderr_log)
    return cases


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def run_loop(cases, seconds: float, env, stderr_log) -> dict:
    """Closed loop: the next command starts only after the previous one exits.

    The clock runs only while a command runs; checking its output is the
    benchmark's own work and is left out of the timed run.
    """
    samples, errors = [], []
    failed = 0
    clock = 0.0
    i = 0
    while not samples or clock < seconds:
        case = cases[i % len(cases)]
        i += 1
        wall, cpu, rss, code, stdout = spawn(acide_argv(case), env, stderr_log)
        clock += wall
        samples.append({"wall_ms": wall * 1e3, "cpu_ms": cpu * 1e3, "rss_mb": rss, "exit": code})
        if code != 0:
            failed += 1
            continue
        try:
            case.check(stdout)
        except checks.CheckError as exc:
            errors.append(f"command {i}: {exc}")
    return {"samples": samples, "errors": errors, "failed": failed, "clock_s": clock}


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    env = command_env()
    with open(run_dir / "stderr.log", "w", encoding="utf-8") as stderr_log:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cases = setup(workload, seed, run_dir, env, stderr_log)
            setup_times.append(time.perf_counter() - start)
        loop = run_loop(cases, seconds, env, stderr_log)

    samples = loop["samples"]
    ok = [s for s in samples if s["exit"] == 0] or samples
    walls = sorted(s["wall_ms"] for s in ok)
    summary = {
        "workload": workload,
        "seed": seed,
        "commands": len(samples),
        "setup_s": setup_times,
        "wall_ms_quartiles": quartiles(walls),
        "cpu_ms_quartiles": quartiles([s["cpu_ms"] for s in ok]),
        "errors": loop["errors"],
        "samples": samples,
    }
    if len(walls) >= 100:
        summary["wall_ms_p90"] = statistics.quantiles(walls, n=10)[-1]
    (run_dir / "samples.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for message in loop["errors"]:
        print(f"check failed: {message}", file=sys.stderr)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(samples) / loop["clock_s"], "1/s"),
        "latency_p50_ms": (statistics.median(walls), "ms"),
        "cpu_ms_per_op": (sum(s["cpu_ms"] for s in samples) / len(samples), "ms"),
        "peak_rss_mb": (max(s["rss_mb"] for s in samples), "MB"),
    }
    return {
        "correct": not loop["errors"],
        "attempted": len(samples),
        "failed": loop["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer run")
    args = parser.parse_args(argv)

    if not (SRC / "acide" / "cli.py").is_file():
        print(f"error: no acide sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run_dir = Path("bench") / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import traced

        result = traced.traced_run(args.workload, args.seed, args.seconds, run_dir)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, run_dir)
    # Inputs and command outputs are regenerated by every run; the samples
    # and spans stay for reference.
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
