"""Cluster admission under a pre-reserved bandwidth budget.

Admission picks, from N interested users, the largest subset whose optimal
plan fits the reserved budget and keeps the cluster rules AllocationPlan
checks. By cost alone that is the top-k uploaders: dropping the weakest
uploader never raises the requirement, as (n-1)*u_min <= sum(u). So _admit,
the one search (join_cluster's, the sweep's and the curve's), bisects for
the longest upload-sorted suffix that fits, and admits it if its plan keeps
the rules; else it searches the sets E(D) = {u <= D <= d}, D a download: a
set keeps the chain rule (max u <= min d) iff it lies in some E(D).
AdmissionBudget accepts as candidates only peers that keep the per-peer rules.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, NamedTuple, Sequence

from acide.core import (
    AllocationPlan,
    ClusterRefused,
    InsufficientBudgetError,
    PeerProfile,
    StreamParams,
    _CheckedRecord,
    _peer_violations,
    min_bandwidth,
    requirement,
    sort_peers,
)


class _BudgetFields(NamedTuple):
    given_allocated_bandwidth: float
    candidates: tuple[PeerProfile, ...]
    stream: StreamParams


class AdmissionBudget(_CheckedRecord, _BudgetFields):
    """Inputs to an admission decision: the reserved budget, who wants in, the stream.

    The candidates, a non-empty sequence stored as a tuple, must keep the per-peer rules
    (else ClusterRefused), then the budget must be positive and finite; copies are checked alike.
    """

    __slots__ = ()

    def __new__(
        cls, given_allocated_bandwidth: float, candidates: Iterable[PeerProfile], stream: StreamParams
    ) -> AdmissionBudget:
        candidates = tuple(candidates)
        if not candidates:
            raise ValueError("admission requires at least one candidate")
        if refused := _peer_violations(candidates):
            raise ClusterRefused(refused)
        if not (given_allocated_bandwidth > 0 and math.isfinite(given_allocated_bandwidth)):
            raise ValueError(
                f"given_allocated_bandwidth must be positive and finite, "
                f"got {given_allocated_bandwidth}"
            )
        return super().__new__(cls, given_allocated_bandwidth, candidates, stream)


class AdmissionOutcome(NamedTuple):
    """An admitted cluster with its plan and how much of the budget it uses."""

    admitted: tuple[PeerProfile, ...]
    plan: AllocationPlan
    efficiency: float
    rejected: tuple[PeerProfile, ...]


def _first_kept(uploads: Sequence[float], stream: StreamParams, budget: float) -> int:
    """Index of the first peer kept: the smallest r whose suffix uploads[r:] fits `budget`.

    `uploads` are the positive, finite uploads of an upload-sorted pool. A
    suffix fits when its requirement is at most `budget`. Suffix costs fall
    as r grows, so a bisection over O(log N) suffixes finds the same r as a
    scan. Returns len(uploads) when no suffix fits.
    """
    return bisect.bisect_left(
        range(len(uploads)), True, key=lambda r: requirement(uploads[r:], stream) <= budget
    )


def _best_chained(ordered: list[PeerProfile], stream: StreamParams, budget: float) -> AllocationPlan | None:
    """The accepted plan within `budget` with the most peers, then least bandwidth, then least D; or None.

    Inside E(D), D a download of the upload-sorted `ordered`, the top-k argument holds, and the rate
    rule (bw_i <= d_i) fails only while the mean upload is below the stream rate, where dropping the
    weakest peer helps it. So a bisection finds E(D)'s longest suffix that fits and is accepted.
    """
    uploads = [p.upload for p in ordered]
    downloads = sorted(p.download for p in ordered)
    # Every candidate has u <= d, so each one with d < D is among those with u <= D.
    sizes = {d: bisect.bisect_right(uploads, d) - bisect.bisect_left(downloads, d) for d in downloads}
    best: tuple = (0, 0.0, 0.0, None)  # (-peers, bandwidth, D, plan): any plan beats it
    for d in sorted(sizes, key=lambda d: (-sizes[d], d)):
        if sizes[d] < -best[0]:
            break
        members = [p for p in ordered[: bisect.bisect_right(uploads, d)] if p.download >= d]
        low, high = _first_kept([p.upload for p in members], stream, budget), len(members)
        while low < high:
            mid = (low + high) // 2
            try:
                plan = min_bandwidth(members[mid:], stream)
            except ValueError:
                low = mid + 1
            else:
                high = mid
                best = min(best, (-len(plan.peers), plan.total_bandwidth, d, plan))
    return best[3]


def _admit(ordered: list[PeerProfile], stream: StreamParams, budget: float) -> AllocationPlan:
    """join_cluster's search and its plan, raising as it does, for candidates already checked and sorted."""
    removed = _first_kept([p.upload for p in ordered], stream, budget)
    if removed == len(ordered):
        raise InsufficientBudgetError(budget, stream.livestream_bandwidth)
    try:
        return min_bandwidth(ordered[removed:], stream)
    except ValueError:
        plan = _best_chained(ordered, stream, budget)
        if plan is None:
            raise
        return plan


def join_cluster(budget: AdmissionBudget) -> AdmissionOutcome:
    """Admit the largest, then cheapest, set of candidates whose plan fits the budget and keeps the rules.

    An infeasible set (no valid allocation) counts as requiring infinite bandwidth, so it never fits.
    Raises InsufficientBudgetError when the budget is below the livestream bandwidth, so that not even
    one peer fits; when no set's plan is accepted, what the top uploaders' plan was refused with.
    """
    ordered = sort_peers(budget.candidates)
    plan = _admit(ordered, budget.stream, budget.given_allocated_bandwidth)
    admitted = {p.id for p in plan.peers}
    return AdmissionOutcome(
        admitted=plan.peers,
        plan=plan,
        efficiency=plan.total_bandwidth / budget.given_allocated_bandwidth,
        rejected=tuple(p for p in ordered if p.id not in admitted),
    )
