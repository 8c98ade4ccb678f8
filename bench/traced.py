"""Traced per-layer run: the workload's commands replayed in process.

For each command of the workload the run makes three passes, alternating
the order of the last two:

* `acide.cli.main(argv)` with stdout captured, checked like an end-to-end
  command (span `cli.main`);
* the command's calls into the public functions of `cli`, `core`,
  `admission`, `sim` and `experiments`, in the order the command makes
  them, each wrapped in a span (name, start, end, parent);
* the same calls untraced, to measure the tracing overhead.

Then a tracemalloc pass over `sim.simulate`, a size scan of every layer,
and `cli.startup_ms` from fresh interpreters. Spans stay in memory and are
written once, at the end, to spans.json in the run directory.

A per-command metric is the median over the commands of the time one
command spends in that layer. When the workload's command never calls a
layer, its metric reports the scan's n=120 point instead, so that every
traced run carries every metric; spans.json lists those under "off_path".
"""

from __future__ import annotations

import argparse
import io
import json
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

import checks
import workloads
from run import SRC, command_env, setup

sys.path.insert(0, str(SRC))

from acide import admission, cli, core, experiments, sim  # noqa: E402

RATE = float(workloads.RATE_BPS)
DELAY_S = workloads.DELAY_MS / 1000.0
PACKAGE = RATE * DELAY_S

STARTUP_SPAWNS = 10
SCAN_CORE = (5, 120, 2000, 10000)  # load_peers, validate_cluster, min_bandwidth, join_cluster
SCAN_SIM = (5, 120, 500)  # simulate, playback_check, write_trace
SCAN_EXPERIMENTS = (120, 500)  # generate_peers, admitted_vs_budget_curve
SKIPPED = {
    "sim.simulate_ms.n2000": "simulate holds all n^2 = 4 M events: 23 s and 1.15 GB peak RSS "
    "on a 2-core machine; left out while simulate is quadratic",
    "sim.playback_check_ms.n2000": "needs the n=2000 trace, see sim.simulate_ms.n2000",
}
# A scan point repeats until it has taken this long, or SCAN_MAX_REPEATS times.
SCAN_SECONDS = 0.2
SCAN_MAX_REPEATS = 50

PER_COMMAND = (
    "cli.load_peers",
    "core.validate_cluster",
    "core.min_bandwidth",
    "admission.join_cluster",
    "sim.simulate",
    "sim.playback_check",
    "sim.write_trace",
    "experiments.generate_peers",
    "experiments.admitted_vs_budget_curve",
)


class Tracer:
    """Spans kept in memory: id, name, parent id, start and end (perf_counter s)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


class Untraced:
    """The Tracer interface with nothing recorded."""

    def span(self, name: str, **attrs):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def stream_of(args: argparse.Namespace) -> core.StreamParams:
    """The stream the CLI derives from --livestream-bps and --delay-ms."""
    delay_s = float(args.delay_ms) / 1000.0
    return core.StreamParams(package_size=float(args.livestream_bps) * delay_s, delay_bound=delay_s)


def replay_simulate(args, t) -> dict:
    peers = t.call("cli.load_peers", cli.load_peers_csv, args.input)
    stream = stream_of(args)
    report = t.call("core.validate_cluster", core.validate_cluster, peers, stream)
    plan = t.call("core.min_bandwidth", core.min_bandwidth, peers, stream)
    trace = t.call("sim.simulate", sim.simulate, plan)
    playback = t.call("sim.playback_check", sim.playback_check, trace, stream)
    if args.output:
        buf = io.StringIO()
        t.call("sim.write_trace", sim.write_trace_json, trace, buf)
        Path(args.output).write_text(buf.getvalue(), encoding="utf-8")
    return {"ok": report.ok and playback.continuous, "plan": plan, "events": len(trace.events)}


def replay_admit(args, t) -> dict:
    peers = t.call("cli.load_peers", cli.load_peers_csv, args.input)
    budget = admission.AdmissionBudget(float(args.budget_bps), tuple(peers), stream_of(args))
    outcome = t.call("admission.join_cluster", admission.join_cluster, budget)
    return {"ok": True, "plan": outcome.plan}


def replay_curve(args, t) -> dict:
    delay_s = float(args.delay_ms) / 1000.0
    ok = True
    for size in args.sizes:
        pool = t.call("experiments.generate_peers", experiments.generate_peers, size,
                      experiments.DEFAULT_UPLOAD_RANGES[size], experiments.DEFAULT_DOWNLOAD_RANGES[size], args.seed)
        t.call("experiments.admitted_vs_budget_curve", experiments.admitted_vs_budget_curve,
               size, float(args.livestream_bps), args.seed, delay_bound=delay_s)
        ok = ok and [p.upload for p in pool] == sorted(checks.draw_uploads(size, args.seed))
    return {"ok": ok, "plan": None}


REPLAYS = {"simulate": replay_simulate, "admit": replay_admit, "curve": replay_curve}


def replay_commands(cases, seconds: float, tracer: Tracer) -> dict:
    parser = cli.build_parser()
    errors, overhead = [], []
    events: list[int] = []
    commands = failed = 0
    start = time.perf_counter()
    while commands == 0 or time.perf_counter() - start < seconds:
        case = cases[commands % len(cases)]
        args = parser.parse_args(case.argv)
        replay = REPLAYS[args.command]
        commands += 1
        try:
            buf = io.StringIO()
            with tracer.span("cli.main", command=commands), redirect_stdout(buf):
                code = cli.main(case.argv)
            if code != 0:
                failed += 1
                continue
            case.check(buf.getvalue())
            passes = {}
            for traced in ((True, False) if commands % 2 else (False, True)):
                t0 = time.perf_counter()
                if traced:
                    with tracer.span("command", command=commands) as root:
                        result = replay(args, tracer)
                    for s in tracer.spans[root["id"] + 1:]:
                        s["command"] = commands
                else:
                    replay(args, Untraced())
                passes[traced] = (time.perf_counter() - t0) * 1e3
            overhead.append((passes[True], passes[False]))
            if not result["ok"]:
                raise checks.CheckError("replayed command disagrees with the end-to-end checks")
            if result["plan"] is not None:
                checks.check_plan(result["plan"], PACKAGE, DELAY_S)
            if "events" in result:
                events.append(result["events"])
        except (checks.CheckError, ValueError) as exc:
            errors.append(f"command {commands}: {exc}")
    return {"commands": commands, "failed": failed, "errors": errors, "overhead": overhead, "events": events}


def scan_peers(seed: int, n: int) -> tuple[list[core.PeerProfile], list[tuple[str, str, str]]]:
    drawn = workloads.draw_peers(random.Random(seed * 100003 + n), n, "s")
    return [core.PeerProfile(i, float(u), float(d)) for i, u, d in drawn], drawn


def timed_repeats(tracer: Tracer, name: str, n: int, fn, *args, **kwargs):
    """Call fn until SCAN_SECONDS have passed (at least once); return the last result."""
    start = time.perf_counter()
    repeats = 0
    while repeats == 0 or (time.perf_counter() - start < SCAN_SECONDS and repeats < SCAN_MAX_REPEATS):
        with tracer.span(name, scan=True, n=n):
            result = fn(*args, **kwargs)
        repeats += 1
    return result


def size_scan(tracer: Tracer, seed: int, scratch: Path) -> list[str]:
    errors = []
    stream = core.StreamParams(package_size=PACKAGE, delay_bound=DELAY_S)
    for n in SCAN_CORE:
        peers, drawn = scan_peers(seed, n)
        path = scratch / f"scan-{n}.csv"
        workloads.write_peers_csv(path, drawn)
        timed_repeats(tracer, "cli.load_peers", n, cli.load_peers_csv, str(path))
        timed_repeats(tracer, "core.validate_cluster", n, core.validate_cluster, peers, stream)
        plan = timed_repeats(tracer, "core.min_bandwidth", n, core.min_bandwidth, peers, stream)
        text = workloads.half_admitting_budget(workloads.exact_uploads(drawn))
        budget = admission.AdmissionBudget(float(text), tuple(peers), stream)
        outcome = timed_repeats(tracer, "admission.join_cluster", n, admission.join_cluster, budget)
        try:
            checks.check_plan(plan, PACKAGE, DELAY_S)
            checks.check_plan(outcome.plan, PACKAGE, DELAY_S)
            if len(outcome.admitted) != n // 2:
                raise checks.CheckError(f"scan n={n}: admitted {len(outcome.admitted)}, expected {n // 2}")
        except checks.CheckError as exc:
            errors.append(f"scan n={n}: {exc}")
        del peers, plan, outcome, budget
    for n in SCAN_SIM:
        peers, _ = scan_peers(seed, n)
        plan = core.min_bandwidth(peers, stream)
        trace = timed_repeats(tracer, "sim.simulate", n, sim.simulate, plan)
        playback = timed_repeats(tracer, "sim.playback_check", n, sim.playback_check, trace, stream)
        timed_repeats(tracer, "sim.write_trace", n, lambda: sim.write_trace_json(trace, io.StringIO()))
        if not playback.continuous or len(trace.events) != n * n:
            errors.append(f"scan n={n}: simulate gave {len(trace.events)} events, continuous={playback.continuous}")
        del trace
    for n in SCAN_EXPERIMENTS:
        ranges = (workloads.UPLOAD_RANGE, workloads.DOWNLOAD_RANGE)
        timed_repeats(tracer, "experiments.generate_peers", n, experiments.generate_peers, n, *ranges, seed)
        curve = timed_repeats(tracer, "experiments.admitted_vs_budget_curve", n, experiments.admitted_vs_budget_curve,
                              n, RATE, seed, *ranges, delay_bound=DELAY_S)
        if [c for _, c in curve] != sorted(c for _, c in curve) or curve[-1][1] != n:
            errors.append(f"scan n={n}: curve is not non-decreasing up to {n}")
    timed_repeats(tracer, "experiments.run_admission_sweep", 0, experiments.run_admission_sweep,
                  experiments.default_scenario(seed=seed))
    return errors


def peak_alloc_mb(plan) -> float:
    """tracemalloc peak of one sim.simulate call, in its own pass."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        trace = sim.simulate(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del trace
    return peak / 2**20


def startup_ms(env) -> list[float]:
    walls = []
    for _ in range(STARTUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import acide.cli"], env=env, check=True)
        walls.append((time.perf_counter() - start) * 1e3)
    return walls


def durations_ms(spans) -> list[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans]


def traced_run(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    env = command_env()
    with open(run_dir / "stderr.log", "w", encoding="utf-8") as stderr_log:
        cases = setup(workload, seed, run_dir, env, stderr_log)
    tracer = Tracer()
    startup = startup_ms(env)
    replayed = replay_commands(cases, seconds, tracer)
    errors = list(replayed["errors"])

    first = cli.build_parser().parse_args(cases[0].argv)
    on_path = {s["name"] for s in tracer.spans if "command" in s}
    if "sim.simulate" in on_path:
        alloc_plan = core.min_bandwidth(cli.load_peers_csv(first.input), stream_of(first))
    else:
        alloc_plan = core.min_bandwidth(scan_peers(seed, 120)[0], core.StreamParams(PACKAGE, DELAY_S))
    alloc = peak_alloc_mb(alloc_plan)
    del alloc_plan

    errors += size_scan(tracer, seed, run_dir / "inputs")

    metrics: dict[str, tuple[float, str]] = {
        "cli.startup_ms": (statistics.median(startup), "ms"),
        "cli.main_ms": (statistics.median(durations_ms(s for s in tracer.spans if s["name"] == "cli.main")), "ms"),
    }
    off_path = []
    for name in PER_COMMAND:
        if name in on_path:
            per_command: dict[int, float] = {}
            for s in tracer.spans:
                if s["name"] == name and "command" in s:
                    per_command[s["command"]] = per_command.get(s["command"], 0.0) + (s["end"] - s["start"]) * 1e3
            value = statistics.median(per_command.values())
        else:
            off_path.append(name)
            value = statistics.median(durations_ms(s for s in tracer.spans if s["name"] == name and s.get("n") == 120))
        metrics[f"{name}_ms"] = (value, "ms")
    metrics["sim.peak_alloc_mb"] = (alloc, "MB")
    # Off the path, the scan's n=120 trace, whose n^2 events size_scan checks.
    metrics["sim.events"] = (statistics.median(replayed["events"]) if replayed["events"] else 120 * 120, "count")
    scanned = sorted({(s["name"], s["n"]) for s in tracer.spans if s.get("scan")})
    for name, n in scanned:
        key = f"{name}_ms" + (f".n{n}" if n else "")
        metrics[key] = (statistics.median(durations_ms(s for s in tracer.spans if s["name"] == name and s.get("n") == n)), "ms")

    traced_ms = [a for a, _ in replayed["overhead"]]
    untraced_ms = [b for _, b in replayed["overhead"]]
    overhead = {
        "traced_ms_per_command": statistics.median(traced_ms) if traced_ms else None,
        "untraced_ms_per_command": statistics.median(untraced_ms) if untraced_ms else None,
    }
    if traced_ms:
        overhead["overhead_pct"] = 100.0 * (overhead["traced_ms_per_command"] / overhead["untraced_ms_per_command"] - 1)
    report = {"workload": workload, "seed": seed, "commands": replayed["commands"], "errors": errors,
              "startup_ms": startup, "trace_overhead": overhead, "off_path": off_path, "skipped": SKIPPED,
              "spans": tracer.spans}
    (run_dir / "spans.json").write_text(json.dumps(report) + "\n", encoding="utf-8")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"tracing overhead: {json.dumps(overhead)}; off-path metrics from the n=120 scan: {off_path}; "
          f"skipped: {sorted(SKIPPED)}")
    return {
        "correct": not errors,
        "attempted": replayed["commands"],
        "failed": replayed["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
