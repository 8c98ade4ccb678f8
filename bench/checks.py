"""Output checks for the benchmark, made apart from acide.

Nothing here imports acide. Every expected value is derived from the
inputs with exact rational arithmetic (fractions.Fraction) or from
properties of the two-phase method itself:

* the optimal allocation for peers with uploads u_i, package S and delay
  bound T needs S / (T - (n-1)*S/sum(u)) of base-station bandwidth;
* removing the weakest uploader never raises that requirement, so greedy
  admission keeps the top-k uploaders for the largest k that fits;
* phase 1 ends together for every peer, each phase-2 step lasts S/sum(u),
  and the n-1 steps of a cyclic shift make every step a perfect matching.

Each check raises CheckError with a reason when an output is wrong.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

BASE_STATION = "base-station"
REL_TOL = 1e-9

# The bundled per-size draw ranges of `acide curve` (bits/second), as the
# acide README documents them: uploads and downloads are uniform in these
# ranges, and whole batches are redrawn until max upload <= min download.
CURVE_RANGES = {
    80: ((10000.0, 80000.0), (80000.0, 150000.0)),
    100: ((10000.0, 90000.0), (90000.0, 170000.0)),
    120: ((10000.0, 100000.0), (100000.0, 190000.0)),
}
MAX_REDRAWS = 10000


class CheckError(AssertionError):
    """An output of acide disagrees with the independently computed answer."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def requirement(top_sum: Fraction, k: int, package: Fraction, delay: Fraction):
    """S / (T - (k-1)*S/U) for k peers of upload total U, or math.inf if infeasible."""
    phase1 = delay - (k - 1) * package / top_sum
    return package / phase1 if phase1 > 0 else math.inf


def requirements(uploads: Sequence[Fraction], package: Fraction, delay: Fraction) -> list:
    """Exact bandwidth needed by the top-k uploaders, for k = 1..len(uploads).

    Entry k-1 is requirement() of the k largest uploads. The list is
    non-decreasing (checked here): (k-1)/U_k grows with k because no added
    upload exceeds the mean of the larger ones.
    """
    result = []
    top_sum = Fraction(0)
    for k, upload in enumerate(sorted(uploads, reverse=True), start=1):
        top_sum += upload
        result.append(requirement(top_sum, k, package, delay))
    for k in range(1, len(result)):
        _require(result[k] >= result[k - 1], f"requirement falls from k={k} to k={k + 1}")
    return result


def largest_fitting(reqs: Sequence, budget: Fraction) -> int:
    """Largest k whose exact requirement is at most the budget (0 if none)."""
    return bisect_right(reqs, budget)


def _stdout_value(lines: list[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise CheckError(f"no line starting with {prefix!r} in output")


# --- plan-verify: `acide simulate` without --output -----------------------


def expected_makespan(uploads: Sequence[Fraction], package: Fraction, delay: Fraction) -> Fraction:
    """Makespan of the optimal plan, from the method's closed forms.

    Phase 1 lasts S/bw with bw the optimal bandwidth. Block i has size
    S*u_i/sum(u) and moves at u_i, so every phase-2 step lasts S/sum(u),
    and n-1 of them follow. For the optimum the two phases fill T exactly.
    """
    n = len(uploads)
    total = sum(uploads, Fraction(0))
    bandwidth = requirements(uploads, package, delay)[n - 1]
    _require(bandwidth != math.inf, f"cluster of {n} peers has no feasible plan")
    return package / bandwidth + (n - 1) * (package / total)


def check_simulate_stdout(stdout: str, delay: Fraction, makespan: Fraction) -> None:
    lines = stdout.splitlines()
    _require(_stdout_value(lines, "playback: ") == "continuous", "playback is not continuous")
    text = _stdout_value(lines, "makespan: ")
    parts = text.split()
    _require(
        len(parts) == 6 and parts[1] == "s" and parts[2] == "(delay" and parts[3] == "bound",
        f"unexpected makespan line {text!r}",
    )
    printed, printed_bound = float(parts[0]), float(parts[4])
    _require(makespan == delay, f"optimal phases sum to {float(makespan)} s, not T={float(delay)} s")
    _require(_close(printed, float(delay)), f"printed makespan {printed} s differs from T={float(delay)} s")
    _require(_close(printed_bound, float(delay)), f"printed delay bound {printed_bound} s is not T")


# --- trace-export: `acide simulate --output <file> --format json` ---------


def check_trace(trace: dict, peer_ids: Sequence[str], delay: float) -> None:
    """Whole-trace properties of a two-phase replay of n peers.

    With exactly n^2 events, n^2 distinct (receiver, block) pairs over n
    peers and n blocks mean every peer receives every block exactly once;
    likewise n(n-1) distinct (step, sender) pairs over n-1 steps mean every
    peer sends once per step, and the same for receivers.
    """
    ids = set(peer_ids)
    n = len(ids)
    _require(len(ids) == len(peer_ids), "input peer ids are not distinct")
    events = trace["events"]
    _require(len(events) == n * n, f"{len(events)} events, expected n^2 = {n * n}")
    blocks = set(range(1, n + 1))
    _require({e["receiver"] for e in events} == ids, "events do not reach exactly the input peers")
    _require({e["block"] for e in events} == blocks, f"block indices are not 1..{n}")
    _require(len({(e["receiver"], e["block"]) for e in events}) == n * n, "some peer misses or repeats a block")
    _require(all(e["end_s"] >= e["start_s"] >= 0 for e in events), "an event ends before it starts")

    phase1 = [e for e in events if e["phase"] == 1]
    phase2 = [e for e in events if e["phase"] != 1]
    _require(
        len(phase1) == n and all(e["sender"] == BASE_STATION and e["step"] == 0 for e in phase1),
        "phase 1 is not one base-station transfer per peer",
    )
    owner = {e["block"]: e["receiver"] for e in phase1}
    _require(len(owner) == n and len(set(owner.values())) == n, "phase 1 does not give each peer its own block")
    _require(all(e["phase"] == 2 for e in phase2), "an event is in neither phase")
    _require({e["step"] for e in phase2} == set(range(1, n)), f"phase-2 steps are not 1..{n - 1}")
    _require(all(e["sender"] == owner[e["block"]] for e in phase2), "a block is forwarded by a peer that does not own it")
    _require(all(e["sender"] != e["receiver"] for e in phase2), "a peer sends to itself")
    for role in ("sender", "receiver"):
        _require(
            len({(e["step"], e[role]) for e in phase2}) == n * (n - 1),
            f"a phase-2 step is not a perfect matching: some peer is {role} twice in one step",
        )

    completion: dict[str, float] = {}
    for e in events:
        if e["end_s"] > completion.get(e["receiver"], -1.0):
            completion[e["receiver"]] = e["end_s"]
    latest = max(completion.values())
    _require(latest == trace["makespan_s"], f"latest completion {latest} differs from makespan {trace['makespan_s']}")
    _require(trace["completion_times_s"] == completion, "completion_times_s disagrees with the events")
    _require(_close(trace["makespan_s"], delay), f"makespan {trace['makespan_s']} s differs from T={delay} s")


def check_trace_export(stdout: str, trace_path: str, peer_ids: Sequence[str], delay: Fraction) -> None:
    lines = stdout.splitlines()
    _require(_stdout_value(lines, "playback: ") == "continuous", "playback is not continuous")
    _require(_stdout_value(lines, "wrote ") == trace_path, "trace file not reported as written")
    with open(trace_path, "r", encoding="utf-8") as fp:
        trace = json.load(fp)
    check_trace(trace, peer_ids, float(delay))


# --- admit: `acide admit` --------------------------------------------------


def check_admit_stdout(
    stdout: str,
    peers: Sequence[tuple[str, str, str]],
    budget: Fraction,
    reqs: Sequence,
) -> None:
    """Admitted count, rejected ids and printed bandwidth against the exact answer.

    peers are (id, upload, download) as written to the input file; reqs is
    requirements() of their uploads.
    """
    n = len(peers)
    k = largest_fitting(reqs, budget)
    lines = stdout.splitlines()
    head = _stdout_value(lines, "admitted ").split()
    _require(len(head) == 4 and head[1:3] == ["of", str(n)], f"unexpected admitted line {head!r}")
    _require(int(head[0]) == k, f"admitted {head[0]} of {n}, the exact answer is {k}")

    by_upload = sorted(peers, key=lambda p: Fraction(p[1]))
    lowest = {p[0] for p in by_upload[: n - k]}
    rejected_text = _stdout_value(lines, "rejected: ") if k < n else ""
    rejected = [r for r in rejected_text.split(", ") if r]
    _require(
        len(rejected) == n - k and set(rejected) == lowest,
        f"rejected ids are not exactly the {n - k} lowest uploaders",
    )

    words = _stdout_value(lines, "allocated bandwidth: ").split()
    _require(len(words) == 5 and words[2] == "(budget", f"unexpected bandwidth line {words!r}")
    printed_bw, printed_budget = float(words[0]), float(words[3])
    _require(printed_bw <= printed_budget, f"allocated {printed_bw} bps exceeds the budget {printed_budget} bps")
    _require(
        abs(printed_bw - float(reqs[k - 1])) <= 0.005 + 1e-9 * printed_bw,
        f"printed bandwidth {printed_bw} bps is not the exact requirement {float(reqs[k - 1]):.4f} bps",
    )


# --- curve: `acide curve --format json` -----------------------------------


def draw_uploads(size: int, seed: int) -> list[float]:
    """Re-draw the uploads of the pool `acide curve` uses for this size and seed."""
    (u_low, u_high), (d_low, d_high) = CURVE_RANGES[size]
    rng = random.Random(seed)
    for _ in range(MAX_REDRAWS):
        uploads = [rng.uniform(u_low, u_high) for _ in range(size)]
        downloads = [rng.uniform(d_low, d_high) for _ in range(size)]
        if max(uploads) <= min(downloads):
            return uploads
    raise CheckError(f"no valid pool of {size} for seed {seed}")


def check_curve(points: Sequence[dict], reqs: Sequence) -> None:
    """An admitted-vs-budget curve for a pool whose exact requirements are reqs.

    A budget within 1e-9 relative of a requirement accepts the count on
    either side of that requirement; elsewhere the count must be exact.
    """
    size = len(reqs)
    _require(len(points) == size, f"{len(points)} curve points for a pool of {size}")
    counts = [p["n"] for p in points]
    _require(counts[0] == 1, f"the first point admits {counts[0]}, not 1")
    _require(counts[-1] == size, f"the last point admits {counts[-1]}, not {size}")
    for i in range(1, size):
        _require(counts[i] >= counts[i - 1], f"n decreases from {counts[i - 1]} to {counts[i]} at point {i + 1}")
        _require(points[i]["BW_bps"] >= points[i - 1]["BW_bps"], f"budget decreases at point {i + 1}")
    for p in points:
        budget = Fraction(p["BW_bps"])
        low = largest_fitting(reqs, budget * (1 - Fraction(REL_TOL)))
        high = largest_fitting(reqs, budget * (1 + Fraction(REL_TOL)))
        _require(
            low <= p["n"] <= high,
            f"budget {p['BW_bps']} bps admits {p['n']}, the exact answer is {low}"
            + (f"..{high}" if high != low else ""),
        )


# --- traced run: plans returned by acide.core.min_bandwidth ---------------


def check_plan(plan, package: float, delay: float) -> None:
    """Block sizes S*u_i/sum(u) and bandwidth S/(T - (n-1)*S/sum(u)), to 1e-9."""
    uploads = [Fraction(p.upload) for p in plan.peers]
    total = sum(uploads, Fraction(0))
    n = len(uploads)
    S, T = Fraction(package), Fraction(delay)
    for peer, u, size in zip(plan.peers, uploads, plan.block_sizes):
        _require(_close(size, float(S * u / total)), f"block of {peer.id} is {size}, not S*u/sum(u)")
    bandwidth = S / (T - (n - 1) * S / total)
    _require(
        _close(plan.total_bandwidth, float(bandwidth)),
        f"plan bandwidth {plan.total_bandwidth} is not the closed form {float(bandwidth)}",
    )
