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

# Violation codes, in the order they are reported: the per-peer rules, then a plan's rules.
DUPLICATE_ID = "duplicate-id"
UPLOAD_OVER_DOWNLOAD = "upload-over-download"
UPLOAD_OVER_MIN_DOWNLOAD = "upload-over-min-download"
RATE_OVER_DOWNLOAD = "rate-over-download"


def number(value, kind: type = float):
    """kind(value) for a number, refusing text and JSON's true and false with TypeError.

    bool is an int subclass, so float(True) is 1.0 and would pass as a number;
    float("1_0") and int(" 5 ") would parse text, which only the file readers
    and the flags do. For kind=int the value must also be whole: int(5.7)
    would quietly give 5.
    """
    if isinstance(value, (bool, str, bytes, bytearray)):
        raise TypeError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # an int beyond the range of a float
        raise ValueError(str(exc)) from None


class _CheckedRecord:
    """Base for a NamedTuple subclass whose __new__ checks its values; list it first in the bases."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        # The tuple's own _make, which _replace calls, would skip __new__.
        return cls(*iterable)


class _PeerFields(NamedTuple):
    id: str
    upload: float
    download: float


class PeerProfile(_CheckedRecord, _PeerFields):
    """One user's link capacities in bits/second.

    Both capacities must be positive and finite, else ValueError naming the
    peer; copies made with _replace or _make are checked like new values.
    The cluster rules, an upload above the download among them, are left to
    AllocationPlan, so that a broken input is diagnosed as a whole.
    """

    __slots__ = ()

    def __new__(cls, id: str, upload: float, download: float) -> PeerProfile:
        # Written as ranges so that NaN fails too.
        if not (0 < upload < math.inf and 0 < download < math.inf):
            raise ValueError(f"peer {id}: bandwidths must be positive and finite, got {upload}, {download}")
        return tuple.__new__(cls, (id, upload, download))


class _StreamFields(NamedTuple):
    package_size: float
    delay_bound: float


class StreamParams(_CheckedRecord, _StreamFields):
    """A livestream's package size (bits) and delay bound (seconds).

    Each package must be fully delivered within one delay-bound window for
    playback to continue without stalling. The ratio package_size/delay_bound
    is the livestream bandwidth: the rate a single consumer would need.
    Both values and their ratio must be positive and finite; copies made
    with _replace or _make are checked like new values.
    """

    __slots__ = ()

    def __new__(cls, package_size: float, delay_bound: float) -> StreamParams:
        # The delay bound first: a package size derived from a bad delay is bad too.
        if not (delay_bound > 0 and math.isfinite(delay_bound)):
            raise ValueError(f"delay_bound must be positive and finite, got {delay_bound}")
        if not (package_size > 0 and math.isfinite(package_size)):
            raise ValueError(f"package_size must be positive and finite, got {package_size}")
        rate = package_size / delay_bound
        if not 0 < rate < math.inf:  # finite values whose ratio overflows or underflows
            raise ValueError(
                f"livestream bandwidth {package_size} bits / {delay_bound} s "
                f"must be positive and finite, got {rate} bps"
            )
        return super().__new__(cls, package_size, delay_bound)

    @property
    def livestream_bandwidth(self) -> float:
        return self.package_size / self.delay_bound


class _PlanFields(NamedTuple):
    peers: tuple[PeerProfile, ...]
    block_sizes: tuple[float, ...]
    peer_bandwidths: tuple[float, ...]
    total_bandwidth: float
    phase1_time: float
    phase2_time: float


class AllocationPlan(_CheckedRecord, _PlanFields):
    """A solved allocation: who gets which block at what rate.

    Peers are sorted ascending by upload; block_sizes and peer_bandwidths are
    aligned with that order. total_bandwidth holds the closed-form optimum,
    which the per-peer bandwidths sum to within the working tolerance.
    Plans produced by min_bandwidth satisfy:

      sum(block_sizes) == package_size
      block_sizes[i] / peer_bandwidths[i] == phase1_time  for every i
      phase1_time + phase2_time == delay_bound
      total_bandwidth >= livestream bandwidth, equality iff n == 1

    Every plan, a copy made with _replace or _make included, has at least one
    peer and one block size and rate per peer, each positive and finite, else
    ValueError, unless a per-peer rule is broken. It keeps the cluster rules,
    else ClusterRefused names each one broken, per-peer rules first. Every
    plan acide makes passes here.
    """

    __slots__ = ()

    def __new__(
        cls, peers: tuple[PeerProfile, ...], block_sizes: tuple[float, ...], peer_bandwidths: tuple[float, ...],
        total_bandwidth: float, phase1_time: float, phase2_time: float,
    ) -> AllocationPlan:
        n = len(peers)
        if n == 0:
            raise ValueError("an allocation plan needs at least one peer")
        if len(block_sizes) != n or len(peer_bandwidths) != n:
            raise ValueError(
                f"plan is inconsistent: {n} peers, {len(block_sizes)} block sizes, "
                f"{len(peer_bandwidths)} bandwidths"
            )
        violations = _peer_violations(peers)
        inf = math.inf
        for peer, size, rate in zip(peers, block_sizes, peer_bandwidths):
            # Written as ranges so that NaN fails too, which min() and max() would skip.
            if not (0 < size < inf and 0 < rate < inf) and not violations:
                raise ValueError(f"block size or rate is not positive and finite for peer {peer.id}")
        if violations := violations + _plan_violations(peers, peer_bandwidths):
            raise ClusterRefused(violations)
        return super().__new__(cls, peers, block_sizes, peer_bandwidths, total_bandwidth, phase1_time, phase2_time)


class AssumptionViolation(NamedTuple):
    code: str
    message: str


class ValidationReport(NamedTuple):
    """Outcome of validate_cluster: empty violations means no cluster rule is broken."""

    violations: tuple[AssumptionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class InsufficientBudgetError(ValueError):
    """The budget is below the livestream bandwidth, so not even one peer fits."""

    def __init__(self, budget: float, livestream_bandwidth: float) -> None:
        self.budget = budget
        self.livestream_bandwidth = livestream_bandwidth
        super().__init__(
            f"budget {budget:.2f} bps is below the livestream bandwidth "
            f"{livestream_bandwidth:.2f} bps; no cluster can be formed"
        )


class ClusterRefused(ValueError):
    """A peer list that breaks cluster rules: its violations in code order, each naming its peers sorted."""

    def __init__(self, violations: Iterable[AssumptionViolation]) -> None:
        self.violations = tuple(violations)
        super().__init__("; ".join(f"{v.code}: {v.message}" for v in self.violations))


def _peer_violations(peers: Sequence[PeerProfile]) -> list[AssumptionViolation]:
    """Violations of the per-peer rules, the only ones AdmissionBudget applies to its candidates."""
    violations: list[AssumptionViolation] = []
    ids = [p.id for p in peers]
    if len(set(ids)) < len(ids):  # sim.simulate keys completion times by id, so a repeat would hide a peer
        repeated = ", ".join(sorted(i for i, k in Counter(ids).items() if k > 1))
        violations.append(AssumptionViolation(DUPLICATE_ID, f"peer id(s) given more than once: {repeated}"))
    if bad := sorted(p.id for p in peers if p.upload > p.download):
        violations.append(AssumptionViolation(UPLOAD_OVER_DOWNLOAD, (
            f"upload exceeds download for peer(s): {', '.join(bad)}")))
    return violations


def _plan_violations(peers: Sequence[PeerProfile], rates: Sequence[float]) -> list[AssumptionViolation]:
    """Violations of a plan's rules: every peer can absorb every block, its own at its phase-1 rate."""
    violations: list[AssumptionViolation] = []
    top_upload = max(p.upload for p in peers)
    least_download = min(p.download for p in peers)
    if top_upload > least_download:
        violations.append(AssumptionViolation(UPLOAD_OVER_MIN_DOWNLOAD, (
            f"largest upload {top_upload:.2f} bps exceeds smallest download "
            f"{least_download:.2f} bps, so some peer cannot absorb another's block")))
    if over := sorted(p.id for p, rate in zip(peers, rates) if rate > p.download):
        violations.append(AssumptionViolation(RATE_OVER_DOWNLOAD, (
            f"phase-1 rate exceeds download for peer(s): {', '.join(over)}")))
    return violations


def validate_cluster(peers: Iterable[PeerProfile], params: StreamParams) -> ValidationReport:
    """The violations AllocationPlan refuses min_bandwidth's plan for these peers with.

    Report-only: raises only for an empty peer list. When no plan exists at
    all (no feasible allocation, or a block or rate that is not positive and
    finite), only the per-peer rules are reported.
    """
    peer_list = list(peers)
    if not peer_list:
        raise ValueError("validate_cluster requires a non-empty peer list")
    try:
        min_bandwidth(peer_list, params)
    except ClusterRefused as refused:
        return ValidationReport(refused.violations)
    except ValueError:  # no plan exists; min_bandwidth would have named a broken per-peer rule
        pass
    return ValidationReport(())


def sort_peers(peers: Iterable[PeerProfile]) -> list[PeerProfile]:
    """Sort ascending by upload, ties by download then id (total order)."""
    return sorted(peers, key=itemgetter(1, 2, 0))


def upload_total(uploads: Iterable[float]) -> float:
    """The canonical upload sum: left to right in double precision, as a += loop adds.

    Every requirement and plan is priced with it over ascending uploads, so
    a set costs the same float wherever it is priced. Not sum(), which from
    Python 3.12 compensates its rounding and would give other floats than
    earlier interpreters.
    """
    return reduce(add, uploads, 0.0)


def requirement(uploads: Sequence[float], params: StreamParams) -> float:
    """S / (T - (n-1)*S/sum(u)): the least bandwidth for the n peers with these ascending uploads.

    Summed by upload_total, so a set costs the float min_bandwidth plans it at.
    Written in this form so the single-peer case reduces to exactly S/T. Returns
    math.inf as the infeasibility sentinel when phase 1 is left no time.
    """
    phase1_budget = params.delay_bound - (len(uploads) - 1) * params.package_size / upload_total(uploads)
    if phase1_budget <= 0:
        return math.inf
    return params.package_size / phase1_budget


def min_bandwidth(peers: Iterable[PeerProfile], params: StreamParams) -> AllocationPlan:
    """The bandwidth-minimal plan for a cluster, its peers sorted by sort_peers.

    Gives each peer a block proportional to its upload, S*u_i/sum_uploads.
    Phase 2 needs (n-1)*S/sum_uploads seconds for the n-1 exchange steps,
    phase 1 gets the rest of the delay bound, and each peer's phase-1
    bandwidth is its block size over the phase-1 time, making all phase-1
    transfers finish together. The upload total is the canonical one, so
    total_bandwidth is the same float requirement gives for this set.

    Raises ValueError when no allocation can meet the delay bound, that is when
    the n-1 exchange steps alone take T <= (n-1)*S/sum_uploads, and for a plan
    AllocationPlan refuses (an overflow, a 0-bit block), ClusterRefused when it
    breaks a cluster rule. A broken per-peer rule is named even when no plan exists.
    """
    ordered = sort_peers(peers)
    if not ordered:
        raise ValueError("min_bandwidth requires at least one peer")
    n = len(ordered)
    uploads = [p.upload for p in ordered]
    sum_upload = upload_total(uploads)
    phase2 = (n - 1) * params.package_size / sum_upload
    phase1 = params.delay_bound - phase2
    if phase1 <= 0:
        if refused := _peer_violations(ordered):
            raise ClusterRefused(refused)
        raise ValueError(
            f"no feasible allocation for n={n} peers with total upload {sum_upload:.2f} bps: "
            f"livestream bandwidth {params.livestream_bandwidth:.2f} bps exceeds what the "
            f"cluster can redistribute within the delay bound"
        )
    sizes = [params.package_size * u / sum_upload for u in uploads]
    bandwidths = [s / phase1 for s in sizes]
    total = params.package_size / phase1
    return AllocationPlan(tuple(ordered), tuple(sizes), tuple(bandwidths), total, phase1, phase2)
