"""Greedy cluster admission under a pre-reserved bandwidth budget.

The base station reserves a bandwidth budget for a cluster before anyone
joins. Admission then has to pick, from N interested users, the largest
subset whose optimal allocation fits the budget. For the cost model used
here that subset is the top-k uploaders for the largest feasible k: dropping
the weakest uploader never raises the requirement, because (n-1)*u_min is at
most sum(u). The requirement is therefore monotone along the upload-sorted
suffixes, and admission bisects for the longest suffix that fits.

AdmissionBudget also decides who may be a candidate, for the library and
the CLI alike: a peer that keeps validate_cluster's per-peer rules. A
candidate's bandwidths need no check of their own here, since PeerProfile
refuses any that is not positive and finite.
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

    The candidates, a non-empty sequence stored as a tuple, must keep
    validate_cluster's per-peer rules (else ClusterRefused), then the budget
    must be positive and finite; copies from _replace or _make are checked alike.
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


def join_cluster(budget: AdmissionBudget) -> AdmissionOutcome:
    """Admit the largest suffix of the upload-sorted candidates that fits the budget.

    The admitted set is the shortest run of lowest-upload candidates whose
    removal brings the required optimal bandwidth within the budget. An
    infeasible remainder (no valid allocation) counts as requiring infinite
    bandwidth, so it never fits. Raises InsufficientBudgetError when even a
    single peer does not fit, i.e. the budget is below the livestream
    bandwidth. The uploads need no check: AdmissionBudget refuses bad ones.
    """
    ordered = sort_peers(budget.candidates)
    uploads = [p.upload for p in ordered]
    cap = budget.given_allocated_bandwidth
    removed = _first_kept(uploads, budget.stream, cap)
    if removed == len(ordered):
        raise InsufficientBudgetError(cap, budget.stream.livestream_bandwidth)
    plan = min_bandwidth(ordered[removed:], budget.stream)
    return AdmissionOutcome(
        admitted=plan.peers,
        plan=plan,
        efficiency=plan.total_bandwidth / cap,
        rejected=tuple(ordered[:removed]),
    )
