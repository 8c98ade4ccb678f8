"""Seeded inputs and commands of the benchmark's four workloads.

Inputs come from the benchmark's own generator (random.Random seeded by
--seed), never from acide.experiments. A run writes INPUTS_PER_RUN inputs
and cycles through them, so within a workload the commands differ only in
their seeded input: the same subcommand, the same flags, the same size.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

INPUTS_PER_RUN = 8
RATE_BPS = 10000
DELAY_MS = 200
PACKAGE = Fraction(RATE_BPS) * Fraction(DELAY_MS, 1000)  # S = 2000 bits
DELAY = Fraction(DELAY_MS, 1000)  # T = 0.2 s
STREAM_FLAGS = ["--livestream-bps", str(RATE_BPS), "--delay-ms", str(DELAY_MS)]

# Every upload is at most every download, so each drawn cluster passes
# acide's validation; with a mean upload near 55 kbps the 10 kbps stream
# is feasible for every cluster size used here.
UPLOAD_RANGE = (10000.0, 100000.0)
DOWNLOAD_RANGE = (100000.0, 190000.0)

PLAN_VERIFY_PEERS = 400
TRACE_EXPORT_PEERS = 150
ADMIT_CANDIDATES = 4000
CURVE_SIZES = (80, 100, 120)


@dataclass
class Case:
    """One command of a workload: its acide arguments and how to check its output."""

    argv: list[str]
    check: Callable[[str], None]  # takes the command's stdout


def draw_peers(rng: random.Random, n: int, prefix: str) -> list[tuple[str, str, str]]:
    """n peers as (id, upload, download) decimal strings with distinct uploads.

    Uploads and downloads are uniform in UPLOAD_RANGE and DOWNLOAD_RANGE,
    written with three decimals; a repeated upload is drawn again, so "the
    k lowest uploaders" never depends on a tie-break.
    """
    peers: list[tuple[str, str, str]] = []
    seen: set[str] = set()
    while len(peers) < n:
        upload = f"{rng.uniform(*UPLOAD_RANGE):.3f}"
        if upload in seen:
            continue
        seen.add(upload)
        peers.append((f"{prefix}{len(peers) + 1:05d}", upload, f"{rng.uniform(*DOWNLOAD_RANGE):.3f}"))
    return peers


def write_peers_csv(path: Path, peers: list[tuple[str, str, str]]) -> None:
    lines = ["id,u_bps,d_bps"] + [",".join(p) for p in peers]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def exact_uploads(peers: list[tuple[str, str, str]]) -> list[Fraction]:
    return [Fraction(p[1]) for p in peers]


def half_admitting_budget(uploads: list[Fraction]) -> str:
    """A budget midway between the requirements of the top n/2 and top n/2+1.

    Returned as the decimal text passed to acide. The two requirements are
    at least 1e-6 relative apart (checked here), so float rounding inside
    acide cannot move the answer off k = n/2.
    """
    ordered = sorted(uploads, reverse=True)
    k = len(ordered) // 2
    top_k = sum(ordered[:k], Fraction(0))
    low = checks.requirement(top_k, k, PACKAGE, DELAY)
    high = checks.requirement(top_k + ordered[k], k + 1, PACKAGE, DELAY)
    text = f"{float((low + high) / 2):.6f}"
    if not (high - low > high / 10**6 and low < Fraction(text) < high):
        raise ValueError(f"requirements of k={k} and k={k + 1} are too close to split")
    return text


# Expected answers are wrapped in functools.cache and computed at the first
# check: they are the benchmark's own work and stay out of the timed set-up.


def _plan_verify(rng: random.Random, inputs: Path, outputs: Path) -> list[Case]:
    cases = []
    for slot in range(INPUTS_PER_RUN):
        peers = draw_peers(rng, PLAN_VERIFY_PEERS, "p")
        path = inputs / f"peers-{slot}.csv"
        write_peers_csv(path, peers)
        makespan = functools.cache(lambda p=peers: checks.expected_makespan(exact_uploads(p), PACKAGE, DELAY))
        cases.append(
            Case(
                argv=["simulate", "--input", str(path), *STREAM_FLAGS],
                check=lambda out, m=makespan: checks.check_simulate_stdout(out, DELAY, m()),
            )
        )
    return cases


def _trace_export(rng: random.Random, inputs: Path, outputs: Path) -> list[Case]:
    cases = []
    for slot in range(INPUTS_PER_RUN):
        peers = draw_peers(rng, TRACE_EXPORT_PEERS, "p")
        path = inputs / f"peers-{slot}.csv"
        write_peers_csv(path, peers)
        trace_path = outputs / f"trace-{slot}.json"
        ids = [p[0] for p in peers]
        cases.append(
            Case(
                argv=["simulate", "--input", str(path), *STREAM_FLAGS, "--output", str(trace_path), "--format", "json"],
                check=lambda out, t=str(trace_path), ids=ids: checks.check_trace_export(out, t, ids, DELAY),
            )
        )
    return cases


def _admit(rng: random.Random, inputs: Path, outputs: Path) -> list[Case]:
    cases = []
    for slot in range(INPUTS_PER_RUN):
        peers = draw_peers(rng, ADMIT_CANDIDATES, "c")
        path = inputs / f"candidates-{slot}.csv"
        write_peers_csv(path, peers)
        uploads = exact_uploads(peers)
        text = half_admitting_budget(uploads)
        reqs = functools.cache(lambda u=uploads: checks.requirements(u, PACKAGE, DELAY))
        cases.append(
            Case(
                argv=["admit", "--input", str(path), "--budget-bps", text, *STREAM_FLAGS],
                check=lambda out, p=peers, b=Fraction(text), r=reqs: checks.check_admit_stdout(out, p, b, r()),
            )
        )
    return cases


def _curve(rng: random.Random, inputs: Path, outputs: Path) -> list[Case]:
    cases = []
    for slot in range(INPUTS_PER_RUN):
        seed = rng.randrange(1, 2**31)
        stem = outputs / f"curve-{slot}.json"
        files = [outputs / f"curve-{slot}_n{size}.json" for size in CURVE_SIZES]
        reqs = functools.cache(lambda s=seed: [curve_requirements(size, s) for size in CURVE_SIZES])
        cases.append(
            Case(
                argv=["curve", "--sizes", *map(str, CURVE_SIZES), *STREAM_FLAGS,
                      "--seed", str(seed), "--format", "json", "--output", str(stem)],
                check=lambda out, f=files, r=reqs: check_curve_outputs(out, f, r()),
            )
        )
    return cases


def curve_requirements(size: int, seed: int) -> list:
    uploads = [Fraction(u) for u in checks.draw_uploads(size, seed)]
    return checks.requirements(uploads, PACKAGE, DELAY)


def check_curve_outputs(stdout: str, files: list[Path], reqs: list[list]) -> None:
    written = [line[len("wrote "):] for line in stdout.splitlines() if line.startswith("wrote ")]
    if written != [str(f) for f in files]:
        raise checks.CheckError(f"curve wrote {written}, expected {[str(f) for f in files]}")
    for path, size_reqs in zip(files, reqs):
        with open(path, "r", encoding="utf-8") as fp:
            checks.check_curve(json.load(fp), size_reqs)


WORKLOADS: dict[str, Callable[[random.Random, Path, Path], list[Case]]] = {
    "plan-verify": _plan_verify,
    "trace-export": _trace_export,
    "admit": _admit,
    "curve": _curve,
}


def make_cases(workload: str, seed: int, inputs: Path, outputs: Path) -> list[Case]:
    """Write the workload's inputs for this seed and return its commands."""
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), inputs, outputs)
