"""Optimal block-size and bandwidth allocation for two-phase P2P livestream clusters.

A base station streams media to a cluster of n peers in packages, one package
per delay-bound window. Each package of S bits is split into n blocks: the
base station sends block i to peer i (phase 1), then the peers exchange their
blocks over direct peer-to-peer links in n-1 barrier-synchronised steps
(phase 2). Given the peers' upload capacities, this module computes the block
sizes and per-peer phase-1 bandwidths that minimise the total base-station
bandwidth while the whole distribution still finishes within the delay bound.
Both are closed forms: block i is S*u_i/sum(u), and the total bandwidth is
S / (T - (n-1)*S/sum(u)).

Units throughout: sizes in bits, bandwidths in bits/second, times in seconds.
All derived quantities are double-precision floats; equality checks use a
relative tolerance of 1e-9 with a 1e-12 absolute floor for near-zero values.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Sequence

REL_TOL = 1e-9
ABS_TOL = 1e-12

DEFAULT_SEED = 42
DEFAULT_DELAY_BOUND = 0.2  # seconds

# Violation codes reported by validate_cluster.
BANDWIDTH_NOT_POSITIVE_FINITE = "bandwidth-not-positive-finite"
DUPLICATE_ID = "duplicate-id"
UPLOAD_OVER_DOWNLOAD = "upload-over-download"
STREAM_OVER_CLUSTER_DOWNLOAD = "stream-over-cluster-download"
UPLOAD_OVER_MIN_DOWNLOAD = "upload-over-min-download"
STREAM_OVER_MEAN_UPLOAD = "stream-over-mean-upload"


def number(value, kind: type = float):
    """kind(value) for a value read from an input file, refusing JSON's true and false.

    bool is an int subclass, so float(True) is 1.0 and would pass as a number.
    For kind=int the value must also be whole: int(5.7) would quietly give 5.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return kind(value)


class PeerProfile(NamedTuple):
    """One user's link capacities in bits/second.

    A well-formed peer uploads no faster than it downloads and has strictly
    positive capacities. Violations are reported by validate_cluster rather
    than rejected at construction, so that broken inputs can be diagnosed.
    """

    id: str
    upload: float
    download: float


class _StreamFields(NamedTuple):
    package_size: float
    delay_bound: float


class StreamParams(_StreamFields):
    """A livestream's package size (bits) and delay bound (seconds).

    Each package must be fully delivered within one delay-bound window for
    playback to continue without stalling. The ratio package_size/delay_bound
    is the livestream bandwidth: the rate a single consumer would need.
    Both values must be positive and finite; copies made with _replace or
    _make are checked like new values.
    """

    __slots__ = ()

    def __new__(cls, package_size: float, delay_bound: float) -> StreamParams:
        # The delay bound first: a package size derived from a bad delay is bad too.
        if not (delay_bound > 0 and math.isfinite(delay_bound)):
            raise ValueError(f"delay_bound must be positive and finite, got {delay_bound}")
        if not (package_size > 0 and math.isfinite(package_size)):
            raise ValueError(f"package_size must be positive and finite, got {package_size}")
        return super().__new__(cls, package_size, delay_bound)

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> StreamParams:
        # The tuple's own _make, which _replace calls, would skip __new__.
        return cls(*iterable)

    @property
    def livestream_bandwidth(self) -> float:
        return self.package_size / self.delay_bound


class AllocationPlan(NamedTuple):
    """A solved allocation: who gets which block at what rate.

    Peers are sorted ascending by upload; block_sizes and peer_bandwidths are
    aligned with that order. total_bandwidth holds the closed-form optimum,
    which the per-peer bandwidths sum to within the working tolerance.
    Plans produced by min_bandwidth satisfy:

      sum(block_sizes) == package_size
      block_sizes[i] / peer_bandwidths[i] == phase1_time  for every i
      phase1_time + phase2_time == delay_bound
      total_bandwidth >= livestream bandwidth, equality iff n == 1
    """

    peers: tuple[PeerProfile, ...]
    block_sizes: tuple[float, ...]
    peer_bandwidths: tuple[float, ...]
    total_bandwidth: float
    phase1_time: float
    phase2_time: float


class AssumptionViolation(NamedTuple):
    code: str
    message: str


class ValidationReport(NamedTuple):
    """Outcome of validate_cluster: empty violations means the cluster is usable."""

    violations: tuple[AssumptionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


class InsufficientBudgetError(ValueError):
    """The budget is below the livestream bandwidth, so not even one peer fits."""

    def __init__(self, budget: float, livestream_bandwidth: float) -> None:
        self.budget = budget
        self.livestream_bandwidth = livestream_bandwidth
        super().__init__(
            f"budget {budget:.2f} bps is below the livestream bandwidth "
            f"{livestream_bandwidth:.2f} bps; no cluster can be formed"
        )


class InfeasibleClusterError(ValueError):
    """No allocation can meet the delay bound for this cluster and stream.

    Raised when the mean-upload feasibility condition fails badly enough that
    the optimal-bandwidth denominator is non-positive. Carries the offending
    cluster size and upload total so admission loops can report them.
    """

    def __init__(self, n: int, sum_upload: float, stream: StreamParams) -> None:
        self.n = n
        self.sum_upload = sum_upload
        super().__init__(
            f"no feasible allocation for n={n} peers with total upload "
            f"{sum_upload:.2f} bps: livestream bandwidth "
            f"{stream.livestream_bandwidth:.2f} bps exceeds what the cluster "
            f"can redistribute within the delay bound"
        )


def validate_cluster(peers: Iterable[PeerProfile], params: StreamParams) -> ValidationReport:
    """Check the cluster assumptions and report every violated condition.

    Report-only: never raises for a bad cluster, only for an empty peer list.
    Checked conditions, in order:

      * every peer's upload and download are positive and finite
      * no two peers share an id
      * every peer's upload is at most its download
      * the livestream bandwidth is strictly below the cluster's download total
      * every peer's upload is at most every peer's download
        (equivalently max upload <= min download)
      * the livestream bandwidth is at most the mean upload, the condition
        under which a feasible optimal allocation exists
    """
    peer_list = list(peers)
    if not peer_list:
        raise ValueError("validate_cluster requires a non-empty peer list")
    rate = params.livestream_bandwidth
    uploads = [p.upload for p in peer_list]
    downloads = [p.download for p in peer_list]
    violations: list[AssumptionViolation] = []

    def report(code: str, message: str) -> None:
        violations.append(AssumptionViolation(code, message))

    total_upload = upload_total(uploads)
    total_download = upload_total(downloads)
    min_download = min(downloads)
    # A NaN hides from min, but it makes its sum NaN, which fails < inf.
    if not (
        min(uploads) > 0 and min_download > 0 and total_upload < math.inf and total_download < math.inf
    ):
        bad = [p.id for p in peer_list if not (0 < p.upload < math.inf and 0 < p.download < math.inf)]
        if bad:  # else only a sum overflowed
            report(BANDWIDTH_NOT_POSITIVE_FINITE,
                   f"upload or download is not positive and finite for peer(s): {', '.join(bad)}")
    ids = [p.id for p in peer_list]
    if len(set(ids)) != len(ids):
        repeated = sorted(i for i, count in Counter(ids).items() if count > 1)
        report(DUPLICATE_ID, f"peer id(s) given more than once: {', '.join(repeated)}")
    bad = [p.id for p in peer_list if p.upload > p.download]
    if bad:
        report(UPLOAD_OVER_DOWNLOAD, f"upload exceeds download for peer(s): {', '.join(bad)}")
    if rate >= total_download:
        report(STREAM_OVER_CLUSTER_DOWNLOAD,
               f"livestream bandwidth {rate:.2f} bps is not below the cluster "
               f"download total {total_download:.2f} bps")
    max_upload = max(uploads)
    if max_upload > min_download:
        report(UPLOAD_OVER_MIN_DOWNLOAD,
               f"largest upload {max_upload:.2f} bps exceeds smallest download "
               f"{min_download:.2f} bps, so some peer cannot absorb another's block")
    mean_upload = total_upload / len(uploads)
    if rate > mean_upload:
        report(STREAM_OVER_MEAN_UPLOAD,
               f"livestream bandwidth {rate:.2f} bps exceeds the mean upload "
               f"{mean_upload:.2f} bps: no feasible allocation exists")
    return ValidationReport(tuple(violations))


def sort_peers(peers: Iterable[PeerProfile]) -> list[PeerProfile]:
    """Sort ascending by upload, ties by download then id (total order)."""
    return sorted(peers, key=itemgetter(1, 2, 0))


def upload_total(uploads: Iterable[float]) -> float:
    """The canonical upload sum: left to right in double precision, as a += loop adds.

    Every requirement and plan is priced with this one expression, so a set
    of peers costs the same float wherever it is priced. Not sum(), which
    from Python 3.12 compensates its rounding and would give other floats
    than earlier interpreters. validate_cluster sums downloads with it too.
    """
    return reduce(add, uploads, 0.0)


def checked_upload_total(peers: Sequence[PeerProfile], uploads: Sequence[float]) -> float:
    """upload_total(uploads), after checking that every upload is positive and finite.

    `uploads` are the uploads of `peers`, in order. min and max do not see a
    NaN reliably, since it compares false both ways, but the sum then is NaN.
    """
    total = upload_total(uploads)
    if not (min(uploads) > 0 and max(uploads) < math.inf and total == total):
        bad = next(p for p in peers if not 0 < p.upload < math.inf)
        raise ValueError(f"peer {bad.id} has an upload that is not positive and finite: {bad.upload}")
    return total


def requirement(n: int, sum_upload: float, params: StreamParams) -> float:
    """S / (T - (n-1)*S/sum_upload): the least bandwidth for n peers uploading sum_upload.

    Written in this form so the single-peer case reduces to exactly S/T.
    Returns math.inf as the infeasibility sentinel when the time budget left
    for phase 1 is not positive.
    """
    phase1_budget = params.delay_bound - (n - 1) * params.package_size / sum_upload
    if phase1_budget <= 0:
        return math.inf
    return params.package_size / phase1_budget


def allocated_bandwidth(sorted_peers: Sequence[PeerProfile], params: StreamParams) -> float:
    """Minimum total base-station bandwidth for this cluster, or inf if infeasible.

    The closed form of `requirement` over the canonical upload sum. Returns
    math.inf as the infeasibility sentinel; admission loops rely on this
    instead of an exception. Raises ValueError for an empty cluster and for
    an upload that is not positive and finite.
    """
    if not sorted_peers:
        raise ValueError("allocated_bandwidth requires at least one peer")
    uploads = [p.upload for p in sorted_peers]
    return requirement(len(uploads), checked_upload_total(sorted_peers, uploads), params)


def plan_sorted(ordered: Sequence[PeerProfile], params: StreamParams) -> AllocationPlan:
    """The bandwidth-minimal plan for peers already sorted by sort_peers.

    Gives each peer a block proportional to its upload, S*u_i/sum_uploads.
    Phase 2 needs (n-1)*S/sum_uploads seconds for the n-1 exchange steps,
    phase 1 gets the rest of the delay bound, and each peer's phase-1
    bandwidth is its block size over the phase-1 time, making all phase-1
    transfers finish together. The upload total is the canonical one, so
    phase1_time is the same float that allocated_bandwidth divides by.

    Raises InfeasibleClusterError when no allocation can meet the delay bound.
    """
    if not ordered:
        raise ValueError("min_bandwidth requires at least one peer")
    n = len(ordered)
    uploads = [p.upload for p in ordered]
    sum_upload = checked_upload_total(ordered, uploads)
    total = requirement(n, sum_upload, params)
    if math.isinf(total):
        raise InfeasibleClusterError(n, sum_upload, params)
    phase2 = (n - 1) * params.package_size / sum_upload
    phase1 = params.delay_bound - phase2
    sizes = [params.package_size * u / sum_upload for u in uploads]
    bandwidths = [s / phase1 for s in sizes]
    return AllocationPlan(
        peers=tuple(ordered),
        block_sizes=tuple(sizes),
        peer_bandwidths=tuple(bandwidths),
        total_bandwidth=total,
        phase1_time=phase1,
        phase2_time=phase2,
    )


def min_bandwidth(peers: Iterable[PeerProfile], params: StreamParams) -> AllocationPlan:
    """Compute the bandwidth-minimal allocation plan for a cluster.

    Sorts the peers ascending by upload (sort_peers) and plans them with
    plan_sorted. Raises InfeasibleClusterError when no allocation can meet
    the delay bound.
    """
    return plan_sorted(sort_peers(peers), params)
