"""Seeded experiment harness: scenario sweeps, trend curves, and block-size profiles.

Candidate pools are drawn with Python's random.Random (MT19937), so a
scenario spec plus a seed pins every output byte-for-byte. The bundled
defaults describe a 200 ms delay bound, per-cluster-size upload/download
ranges that widen with the cluster size, livestream bandwidths from 10 to
16 kbps, and a shared grid of pre-reserved budget values; sweeps admit a
cluster for every (pool size, livestream bandwidth, budget) cell and record
how much of the budget the admitted cluster actually needs.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from acide.admission import _first_kept
from acide.core import (
    DEFAULT_DELAY_BOUND,
    DEFAULT_SEED,
    PeerProfile,
    StreamParams,
    _CheckedRecord,
    min_bandwidth,
    number,
    requirement,
    sort_peers,
    upload_total,
)

DEFAULT_LIVESTREAM_BANDWIDTHS = (10000.0, 12000.0, 14000.0, 16000.0)
DEFAULT_CLUSTER_SIZES = (5, 10, 15, 20, 40, 60)

# Per-cluster-size draw ranges, bits/second. Larger pools come from
# progressively better-provisioned populations.
DEFAULT_UPLOAD_RANGES: dict[int, tuple[float, float]] = {
    5: (10000.0, 20000.0),
    10: (10000.0, 30000.0),
    15: (10000.0, 40000.0),
    20: (10000.0, 50000.0),
    40: (10000.0, 60000.0),
    60: (10000.0, 70000.0),
    80: (10000.0, 80000.0),
    100: (10000.0, 90000.0),
    120: (10000.0, 100000.0),
}
DEFAULT_DOWNLOAD_RANGES: dict[int, tuple[float, float]] = {
    5: (20000.0, 30000.0),
    10: (30000.0, 50000.0),
    15: (40000.0, 70000.0),
    20: (50000.0, 90000.0),
    40: (60000.0, 110000.0),
    60: (70000.0, 130000.0),
    80: (80000.0, 150000.0),
    100: (90000.0, 170000.0),
    120: (100000.0, 190000.0),
}

# Shared budget grid covering both default livestream bandwidths, bps.
DEFAULT_BUDGETS = (
    60000.0,
    50000.0,
    40000.0,
    30000.0,
    20000.0,
    18000.0,
    16000.0,
    14000.0,
    12000.0,
    10000.0,
)

MAX_REDRAWS = 10000


class _ScenarioFields(NamedTuple):
    cluster_sizes: tuple[int, ...]
    upload_ranges: dict[int, tuple[float, float]]
    download_ranges: dict[int, tuple[float, float]]
    delay_bound: float
    livestream_bandwidths: tuple[float, ...]
    budgets: tuple[float, ...]
    seed: int


def _ranges(ranges: Mapping) -> dict[int, tuple[float, float]]:
    if not isinstance(ranges, Mapping) or not all(isinstance(v, (list, tuple)) for v in ranges.values()):
        raise TypeError(f"expected a mapping of [low, high] pairs, got {ranges!r}")
    return {number(k, int): (number(low), number(high)) for k, (low, high) in ranges.items()}


def pool_ranges(
    size: int, upload_ranges: Mapping, download_ranges: Mapping
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The (upload, download) draw ranges for a pool of `size`, checked by the one pool rule.

    In this order, ValueError for a size that is not a whole number, for a
    size below 1, for a size missing from either mapping, for a range outside
    0 < low <= high with finite ends (upload first), and for a pair whose
    smallest upload exceeds its largest download, which no draw could chain.
    """
    size = number(size, int)
    if size < 1:
        raise ValueError(f"cluster sizes must be >= 1, got {size}")
    if size not in upload_ranges or size not in download_ranges:
        raise ValueError(f"no upload/download range given for cluster size {size}")
    pair = upload_ranges[size], download_ranges[size]
    for field, (low, high) in zip(("upload_ranges", "download_ranges"), pair):
        if not (0 < low <= high < math.inf):
            raise ValueError(f"{field}[{size}] must satisfy 0 < low <= high, both finite, got [{low}, {high}]")
    (u_low, _), (_, d_high) = pair
    if u_low > d_high:
        raise ValueError(f"impossible constraint: smallest upload {u_low} exceeds largest download {d_high}")
    return pair


class ScenarioSpec(_CheckedRecord, _ScenarioFields):
    """A reproducible sweep: sizes, draw ranges per size, stream values, budgets, seed.

    Sizes, range keys and the seed must be whole numbers and are stored as
    int; range ends, the delay bound, rates and budgets are stored as float.
    Each size, then each range key, must pass the pool rule of pool_ranges,
    in its order: size >= 1, both ranges given, 0 < low <= high with finite
    ends, smallest upload <= largest download. A string where a sequence
    belongs is refused rather than read character by character; copies made
    with _replace or _make are converted and checked like new values.
    """

    __slots__ = ()

    def __new__(
        cls, cluster_sizes: Iterable[int], upload_ranges: Mapping, download_ranges: Mapping,
        delay_bound: float, livestream_bandwidths: Iterable[float], budgets: Iterable[float], seed: int,
    ) -> ScenarioSpec:
        for field, values in (
            ("cluster_sizes", cluster_sizes),
            ("livestream_bandwidths", livestream_bandwidths),
            ("budgets", budgets),
        ):
            if isinstance(values, str):
                raise ValueError(f"{field} must be a sequence of numbers, got {values!r}")
        self = super().__new__(
            cls,
            tuple(number(s, int) for s in cluster_sizes),
            _ranges(upload_ranges),
            _ranges(download_ranges),
            number(delay_bound),
            tuple(number(v) for v in livestream_bandwidths),
            tuple(number(b) for b in budgets),
            number(seed, int),
        )
        if not self.cluster_sizes:
            raise ValueError("scenario needs at least one cluster size")
        if not self.livestream_bandwidths or not self.budgets:
            raise ValueError("scenario needs livestream bandwidths and budgets")
        for field, values in (
            ("delay_bound", (self.delay_bound,)),
            ("livestream_bandwidths", self.livestream_bandwidths),
            ("budgets", self.budgets),
        ):
            for v in values:
                if not (v > 0 and math.isfinite(v)):
                    raise ValueError(f"{field} must be positive and finite, got {v}")
        for size in (*self.cluster_sizes, *self.upload_ranges, *self.download_ranges):
            pool_ranges(size, self.upload_ranges, self.download_ranges)
        return self


class ExperimentRecord(NamedTuple):
    """One sweep cell, a RECORD_COLUMNS row: pool size N, stream rate, budget, admission result."""

    pool_size: int
    livestream_bandwidth: float
    budget: float
    n_admitted: int
    allocated_bandwidth: float
    efficiency_pct: float


def pool_seed(seed: int, size: int) -> int:
    """Sub-seed for the size-`size` candidate pool of a scenario seed.

    Derived arithmetically so a pool can be regenerated without running the
    whole sweep, and so each cluster size gets an independent stream.
    """
    return (seed * 1_000_003 + size) & 0xFFFFFFFFFFFFFFFF


def generate_peers(
    size: int,
    upload_range: tuple[float, float],
    download_range: tuple[float, float],
    seed: int,
) -> list[PeerProfile]:
    """Draw a candidate pool: uniform uploads and downloads, chain-constrained.

    Every upload must be at most every download (so any peer can absorb any
    other's block). Whole batches are redrawn until the constraint holds,
    which also keeps the draw unbiased within the constraint; pathological
    range pairs give up after MAX_REDRAWS attempts. Output is sorted
    ascending by upload and deterministic for a given seed. The size and
    ranges first pass the pool rule of pool_ranges, in its order and with its
    messages: a whole size >= 1, 0 < low <= high with finite ends, smallest
    upload <= largest download.
    """
    (u_low, u_high), (d_low, d_high) = pool_ranges(size, {size: upload_range}, {size: download_range})
    size = int(size)  # whole, as pool_ranges checked
    rng = random.Random(seed)
    for _ in range(MAX_REDRAWS):
        uploads = [rng.uniform(u_low, u_high) for _ in range(size)]
        downloads = [rng.uniform(d_low, d_high) for _ in range(size)]
        if max(uploads) <= min(downloads):
            break
    else:
        raise ValueError(
            f"could not draw {size} peers with max upload <= min download from "
            f"uploads [{u_low}, {u_high}] and downloads [{d_low}, {d_high}] "
            f"after {MAX_REDRAWS} attempts"
        )
    peers = [
        PeerProfile(id=f"u{i + 1:03d}", upload=u, download=d)
        for i, (u, d) in enumerate(zip(uploads, downloads))
    ]
    return sort_peers(peers)


def run_admission_sweep(spec: ScenarioSpec) -> list[ExperimentRecord]:
    """Admit one cluster per (pool size, livestream bandwidth, budget) cell.

    One candidate pool is drawn per cluster size (see pool_seed) and reused
    across every stream rate and budget, so trends within a size are not
    confounded by redraws. The pools come out of generate_peers sorted by
    upload, so each cell admits the suffix join_cluster would, found by one
    bisection. Records come out ordered: size ascending, stream rate
    ascending, budget descending. A budget below the livestream bandwidth
    admits nobody and is recorded with n_admitted = 0.
    """
    records: list[ExperimentRecord] = []
    for size in sorted(set(spec.cluster_sizes)):
        pool = generate_peers(
            size, *pool_ranges(size, spec.upload_ranges, spec.download_ranges), pool_seed(spec.seed, size)
        )
        uploads = [p.upload for p in pool]
        for rate in sorted(set(spec.livestream_bandwidths)):
            stream = StreamParams(package_size=rate * spec.delay_bound, delay_bound=spec.delay_bound)
            for budget in sorted(set(spec.budgets), reverse=True):
                removed = _first_kept(uploads, stream, budget)
                bw = requirement(size - removed, upload_total(uploads[removed:]), stream) if removed < size else 0.0
                records.append(
                    ExperimentRecord(
                        pool_size=size,
                        livestream_bandwidth=rate,
                        budget=budget,
                        n_admitted=size - removed,
                        allocated_bandwidth=bw,
                        efficiency_pct=bw / budget * 100.0,
                    )
                )
    return records


def admitted_vs_budget_curve(
    size: int,
    livestream_bandwidth: float,
    seed: int,
    upload_range: tuple[float, float] | None = None,
    download_range: tuple[float, float] | None = None,
    delay_bound: float = DEFAULT_DELAY_BOUND,
) -> list[tuple[float, int]]:
    """Admitted cluster size as a function of the budget, for one drawn pool.

    The budget grid spans the livestream bandwidth (everything below it
    admits nobody) up to the bandwidth of the largest admissible group, with
    one grid point per candidate, endpoints included. The pool comes out of
    generate_peers sorted by upload, so each point's n is one bisection over
    its suffixes, as in join_cluster. The resulting n values are
    non-decreasing in the budget. Ranges default to the bundled per-size
    ranges.
    """
    if upload_range is None or download_range is None:
        default_upload, default_download = pool_ranges(size, DEFAULT_UPLOAD_RANGES, DEFAULT_DOWNLOAD_RANGES)
        upload_range = upload_range or default_upload
        download_range = download_range or default_download
    pool = generate_peers(size, upload_range, download_range, seed)
    size = len(pool)
    stream = StreamParams(package_size=livestream_bandwidth * delay_bound, delay_bound=delay_bound)
    low = stream.livestream_bandwidth
    uploads = [p.upload for p in pool]
    # Every finite requirement is at most the largest float, and an
    # infeasible one is inf, so this budget admits the largest feasible group.
    first_feasible = _first_kept(uploads, stream, sys.float_info.max)
    high = requirement(size - first_feasible, upload_total(uploads[first_feasible:]), stream)
    if size == 1:
        grid = [high]
    else:
        grid = [low + (high - low) * i / (size - 1) for i in range(size)]
        grid[0], grid[-1] = low, high
    return [(budget, size - _first_kept(uploads, stream, budget)) for budget in grid]


def block_size_profile(
    sizes: Iterable[int],
    upload_ranges: Mapping[int, tuple[float, float]],
    download_ranges: Mapping[int, tuple[float, float]],
    stream: StreamParams,
    seed: int,
) -> dict[int, list[tuple[float, float, float]]]:
    """Per-peer (upload, block size, bandwidth) tables for a set of cluster sizes.

    Each cluster is drawn with its size's pool_seed and solved; rows are in
    upload order, ready for plotting block size against upload capacity.
    Sizes must be whole numbers.
    """
    profiles: dict[int, list[tuple[float, float, float]]] = {}
    for size in sorted(set(number(s, int) for s in sizes)):
        pool = generate_peers(
            size, *pool_ranges(size, upload_ranges, download_ranges), pool_seed(seed, size)
        )
        plan = min_bandwidth(pool, stream)
        profiles[size] = [
            (p.upload, s, bw)
            for p, s, bw in zip(plan.peers, plan.block_sizes, plan.peer_bandwidths)
        ]
    return profiles


def default_scenario(cluster_sizes: Sequence[int] | None = None, seed: int = DEFAULT_SEED) -> ScenarioSpec:
    """The bundled scenario, optionally restricted or reseeded."""
    data = {"seed": seed} if cluster_sizes is None else {"cluster_sizes": cluster_sizes, "seed": seed}
    return scenario_from_dict(data)


def scenario_from_dict(data: Mapping, source: str = "<scenario>") -> ScenarioSpec:
    """Build a ScenarioSpec from parsed JSON, filling gaps from the defaults (ranges size by size).

    A key's value must be a list where its default is one, and otherwise a value
    its conversion accepts: an object of [low, high] pairs, or a number. Any other
    value makes the scenario malformed, and the message names the key and shape.
    """

    def get(key: str, default, shape: str, convert: Callable = number):
        value = data.get(key, default)
        try:
            if isinstance(value, (list, tuple)) == isinstance(default, tuple):
                return tuple(map(convert, value)) if isinstance(default, tuple) else convert(value)
        except (TypeError, ValueError):
            pass
        raise ValueError(f"{source}: malformed scenario: {key}: expected {shape}, got {value!r}")

    numbers = "a list of numbers"
    pairs = "an object of [low, high] pairs"
    sizes = get("cluster_sizes", DEFAULT_CLUSTER_SIZES, "a list of whole numbers", lambda s: number(s, int))
    upload_ranges = get("upload_ranges", {}, pairs, lambda r: {**DEFAULT_UPLOAD_RANGES, **_ranges(r)})
    download_ranges = get("download_ranges", {}, pairs, lambda r: {**DEFAULT_DOWNLOAD_RANGES, **_ranges(r)})
    return ScenarioSpec(
        cluster_sizes=sizes,
        upload_ranges={s: upload_ranges[s] for s in sizes if s in upload_ranges},
        download_ranges={s: download_ranges[s] for s in sizes if s in download_ranges},
        delay_bound=get("delay_bound_s", DEFAULT_DELAY_BOUND, "a number"),
        livestream_bandwidths=get("livestream_bandwidths_bps", DEFAULT_LIVESTREAM_BANDWIDTHS, numbers),
        budgets=get("budgets_bps", DEFAULT_BUDGETS, numbers),
        seed=get("seed", DEFAULT_SEED, "a whole number", lambda s: number(s, int)),
    )
