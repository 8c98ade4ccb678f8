"""Independent oracles used by the tests.

These recompute expected values straight from definitions: the block-size
system the closed form solves, exact rational arithmetic, exhaustive or
linear searches in place of the library's bisection, the phase-2 cyclic
shift as (step, sender, receiver) triples and an event-by-event replay of
the distribution in place of the simulation's closed form, a
+= loop in place of the canonical upload sum, the row-by-row CSV reader
in place of the CLI's inline one, and the real-valued bound on how many
peers a bandwidth can serve, which admission must respect. The admission
oracles price each candidate set with allocated_bandwidth: the library's
requirement over the canonical upload sum, taken in sort_peers order as
admission and plan_sorted take it, so a budget that sits exactly on a set's
cost is judged by the same float on both sides.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from acide.admission import AdmissionBudget, AdmissionOutcome, InsufficientBudgetError
from acide.cli import ParseInputError, _peer
from acide.core import (
    ABS_TOL,
    REL_TOL,
    AllocationPlan,
    PeerProfile,
    StreamParams,
    min_bandwidth,
    requirement,
    sort_peers,
    upload_total,
)
from acide.output import TRACE_COLUMNS
from acide.sim import BASE_STATION

# A trace row with its columns named, for tests that read rows by field; equal to the plain row.
TraceRow = namedtuple("TraceRow", [name for name, _ in TRACE_COLUMNS])

# 2^N subsets are enumerated; beyond this the oracle refuses.
MAX_ORACLE_CANDIDATES = 16


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Equality at the library's working tolerance."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


@dataclass(frozen=True)
class AlphaCoefficients:
    """Diagonal coefficients of the block-size system, positions 2..n.

    For peers sorted ascending by upload, the k-th coefficient is the sum of
    the first k uploads divided by the k-th upload. Every value is >= 1
    because the sum includes the k-th upload itself.
    """

    values: tuple[float, ...]


def alpha_coefficients(sorted_peers: Sequence[PeerProfile]) -> AlphaCoefficients:
    """Coefficients for positions 2..n of an upload-sorted cluster; empty for n=1."""
    if not sorted_peers:
        raise ValueError("alpha_coefficients requires at least one peer")
    values = []
    prefix = sorted_peers[0].upload
    for peer in sorted_peers[1:]:
        prefix += peer.upload
        values.append(prefix / peer.upload)
    return AlphaCoefficients(tuple(values))


def system_rows(sorted_peers: Sequence[PeerProfile], sizes: Sequence[float]) -> list[float]:
    """Left-hand side of every row of the block-size system, evaluated at `sizes`.

    Row 1 is the conservation row sum(sizes); row k (k >= 2) is
    alpha_k * s_k + sum of the sizes after k, with alpha_k from
    alpha_coefficients. A correct solution makes every row equal the package
    size. A suffix sum keeps the evaluation linear in the cluster size.
    """
    n = len(sorted_peers)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    alphas = alpha_coefficients(sorted_peers).values
    return [suffix[0]] + [alphas[k - 2] * sizes[k - 1] + suffix[k] for k in range(2, n + 1)]


def proportional_sizes(uploads: list[float], package_size: float) -> list[float]:
    """Closed-form solution: each block proportional to its peer's upload."""
    total = sum(uploads)
    return [package_size * u / total for u in uploads]


def total_bandwidth_closed_form(uploads: list[float], package_size: float, delay_bound: float) -> float:
    """S * sum(u) / (T * sum(u) - (n-1) * S), the product form of the optimum."""
    total = sum(uploads)
    return package_size * total / (delay_bound * total - (len(uploads) - 1) * package_size)


def dense_block_sizes_exact(uploads: list[float], package_size: float) -> list[float]:
    """Solve the block-size system by exact rational Gaussian elimination.

    Builds the full dense matrix (all-ones first row; below it, the
    cumulative-upload coefficient on the diagonal and ones to its right)
    and eliminates with Fractions, so the result carries no rounding error
    and shares no code path with the library's back-substitution. Intended
    for small systems only.
    """
    n = len(uploads)
    rational = [Fraction(u) for u in uploads]
    package = Fraction(package_size)
    matrix: list[list[Fraction]] = [[Fraction(1)] * n]
    prefix = rational[0]
    for k in range(2, n + 1):
        prefix += rational[k - 1]
        row = [Fraction(0)] * n
        row[k - 1] = prefix / rational[k - 1]
        for j in range(k, n):
            row[j] = Fraction(1)
        matrix.append(row)
    rhs = [package] * n
    for col in range(n):
        pivot = next(r for r in range(col, n) if matrix[r][col] != 0)
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, n):
            if matrix[r][col] != 0:
                factor = matrix[r][col] / matrix[col][col]
                for j in range(col, n):
                    matrix[r][j] -= factor * matrix[col][j]
                rhs[r] -= factor * rhs[col]
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc -= matrix[i][j] * solution[j]
        solution[i] = acc / matrix[i][i]
    return [float(v) for v in solution]


def allocated_bandwidth(sorted_peers: Sequence[PeerProfile], params: StreamParams) -> float:
    """Minimum total base-station bandwidth for a cluster, or inf if infeasible.

    The peers must come in sort_peers order: the upload sum is taken in the
    order given, so only that order gives the float min_bandwidth and
    join_cluster price the set at. Raises ValueError for an empty cluster.
    """
    if not sorted_peers:
        raise ValueError("allocated_bandwidth requires at least one peer")
    return requirement(len(sorted_peers), upload_total(p.upload for p in sorted_peers), params)


def linear_suffix_scan(ordered: Sequence[PeerProfile], stream: StreamParams, cap: float) -> int:
    """Number of lowest uploaders a drop-the-weakest scan removes; len(ordered) if none fit."""
    for removed in range(len(ordered)):
        if allocated_bandwidth(ordered[removed:], stream) <= cap:
            return removed
    return len(ordered)


def brute_force_admission(budget: AdmissionBudget) -> AdmissionOutcome:
    """Exhaustive admission oracle for small candidate pools.

    Enumerates every non-empty subset, keeps those whose optimal bandwidth is
    feasible and within budget, and returns the best by (max cardinality,
    min bandwidth, lexicographically smallest sorted id list). Deterministic,
    and exponential: refuses more than MAX_ORACLE_CANDIDATES candidates.

    Subsets are taken from the upload-sorted candidate list so each set's
    bandwidth is summed in canonical order; a set's cost is then the same
    float the greedy search computes for it, keeping the two admission routes
    consistent even for budgets that sit exactly on a set's cost.
    """
    candidates = sort_peers(budget.candidates)
    n = len(candidates)
    if n > MAX_ORACLE_CANDIDATES:
        raise ValueError(
            f"brute-force admission enumerates 2^N subsets; "
            f"{n} candidates exceeds the cap of {MAX_ORACLE_CANDIDATES}"
        )
    cap = budget.given_allocated_bandwidth
    best_key: tuple[int, float, tuple[str, ...]] | None = None
    best_subset: list[PeerProfile] | None = None
    for mask in range(1, 1 << n):
        subset = [candidates[i] for i in range(n) if mask >> i & 1]
        required = allocated_bandwidth(subset, budget.stream)
        if required > cap:
            continue
        key = (-len(subset), required, tuple(sorted(p.id for p in subset)))
        if best_key is None or key < best_key:
            best_key = key
            best_subset = subset
    if best_subset is None:
        raise InsufficientBudgetError(cap, budget.stream.livestream_bandwidth)
    plan = min_bandwidth(best_subset, budget.stream)
    chosen = {p.id for p in best_subset}
    rejected = tuple(p for p in candidates if p.id not in chosen)
    return AdmissionOutcome(
        admitted=plan.peers,
        plan=plan,
        efficiency=plan.total_bandwidth / cap,
        rejected=rejected,
    )


def admitted_upper_bound(candidates: Sequence[PeerProfile], stream: StreamParams, bw: float) -> float:
    """Real-valued upper bound on how many peers an allocation of bw can serve.

    1 + U/r - U/bw, with U the candidates' upload total and r the livestream
    bandwidth. Callers floor it for an integer bound. Requires bw >= r.
    """
    rate = stream.livestream_bandwidth
    if bw < rate:
        raise ValueError(
            f"bound is only defined for bw >= livestream bandwidth "
            f"({bw:.2f} < {rate:.2f})"
        )
    sum_upload = upload_total(p.upload for p in candidates)
    return 1.0 + sum_upload / rate - sum_upload / bw


def build_schedule(n: int) -> list[tuple[int, int, int]]:
    """Phase-2 exchange schedule for n peers as (step, sender, receiver) triples.

    Positions are 1-based ranks in the upload-sorted cluster. At step t,
    position i sends its block to position ((i - 1 + t) mod n) + 1: a cyclic
    shift, so every step is a perfect matching with no self-sends, each peer
    uploads once and downloads once per step, and over the n-1 steps every
    ordered pair occurs exactly once. Empty for n = 1.
    """
    if n < 1:
        raise ValueError(f"cluster size must be >= 1, got {n}")
    return [(step, sender, (sender - 1 + step) % n + 1) for step in range(1, n) for sender in range(1, n + 1)]


def replay_simulation(plan: AllocationPlan) -> tuple[tuple[TraceRow, ...], dict[str, float], float]:
    """(events, completion times, makespan) of a plan, replayed event by event.

    Builds every phase-1 and phase-2 transfer, then takes each peer's
    completion as the latest end time among the transfers it receives.
    Quadratic in the cluster size.
    """
    n = len(plan.peers)
    events: list[TraceRow] = []
    for i, (peer, size, rate) in enumerate(zip(plan.peers, plan.block_sizes, plan.peer_bandwidths)):
        events.append(
            TraceRow(
                phase=1,
                step=0,
                sender=BASE_STATION,
                receiver=peer.id,
                block=i + 1,
                start_s=0.0,
                end_s=size / rate,
                rate_bps=rate,
            )
        )
    phase2_start = max(e.end_s for e in events)

    if n > 1:
        durations = [s / p.upload for s, p in zip(plan.block_sizes, plan.peers)]
        step_length = max(durations)
        for step, sender, receiver in build_schedule(n):
            start = phase2_start + (step - 1) * step_length
            events.append(
                TraceRow(
                    phase=2,
                    step=step,
                    sender=plan.peers[sender - 1].id,
                    receiver=plan.peers[receiver - 1].id,
                    block=sender,
                    start_s=start,
                    end_s=start + durations[sender - 1],
                    rate_bps=plan.peers[sender - 1].upload,
                )
            )

    completion: dict[str, float] = {}
    for event in events:
        current = completion.get(event.receiver)
        if current is None or event.end_s > current:
            completion[event.receiver] = event.end_s
    makespan = max(completion.values())
    return tuple(events), completion, makespan


def loop_allocated_bandwidth(sorted_peers: Sequence[PeerProfile], params: StreamParams) -> float:
    """allocated_bandwidth with its upload sum taken by a += loop, left to right."""
    n = len(sorted_peers)
    if n == 0:
        raise ValueError("allocated_bandwidth requires at least one peer")
    sum_upload = 0.0
    for peer in sorted_peers:
        if peer.upload <= 0:
            raise ValueError(f"peer {peer.id} has non-positive upload")
        sum_upload += peer.upload
    phase1_budget = params.delay_bound - (n - 1) * params.package_size / sum_upload
    if phase1_budget <= 0:
        return math.inf
    return params.package_size / phase1_budget


def reference_load_peers_csv(path: str) -> list[PeerProfile]:
    """The CSV peer reader that checks every row with cli._peer."""
    peers = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fp:
            reader = csv.reader(fp)
            for record, row in enumerate(reader, start=1):
                # Errors name the physical line where the record ends.
                line = reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if record == 1 and [c.strip().lower() for c in row[:1]] == ["id"]:
                    continue
                if len(row) != 3:
                    raise ParseInputError(
                        f"{path}:{line}: expected 3 fields id,u_bps,d_bps, got {len(row)}"
                    )
                peers.append(_peer(f"{path}:{line}", row[0].strip(), row[1], row[2]))
    except OSError as exc:
        raise ParseInputError(f"{path}: {exc.strerror or exc}") from exc
    if not peers:
        raise ParseInputError(f"{path}: no peers found")
    return peers
