"""Acceptance suite: the shipped guarantees, one test per criterion.

Each criterion prints a single `ACCEPTANCE <k> (<name>): PASS|FAIL` line
(visible with `pytest -s`). Tolerances: relative 1e-9 on solver identities,
exact two-decimal rendering on the unicast boundary, zero tolerated
violations on trend directions. Stated runtime budgets are asserted.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from io import StringIO

import pytest

from acide.admission import (
    AdmissionBudget,
    admitted_upper_bound,
    join_cluster,
)
from acide.core import (
    StreamParams,
    allocated_bandwidth,
    min_bandwidth,
    sort_peers,
)
from acide.experiments import (
    DEFAULT_DOWNLOAD_RANGES,
    DEFAULT_UPLOAD_RANGES,
    default_scenario,
    generate_peers,
    pool_seed,
    run_admission_sweep,
)
from acide.output import RECORD_COLUMNS, write_table
from acide.sim import simulate
from oracles import (
    brute_force_admission,
    build_schedule,
    proportional_sizes,
    system_rows,
    total_bandwidth_closed_form,
)

REL = 1e-9
CORPUS_SIZES = (5, 10, 15, 20, 40, 60, 80, 100, 120)
CORPUS_SEED_BASE = 90_000
STREAM = StreamParams(package_size=2000.0, delay_bound=0.2)  # 10 kbps over 200 ms


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded clusters cycling the bundled size ranges, n up to 120."""
    clusters = []
    for i in range(1000):
        size = CORPUS_SIZES[i % len(CORPUS_SIZES)]
        clusters.append(
            generate_peers(
                size,
                DEFAULT_UPLOAD_RANGES[size],
                DEFAULT_DOWNLOAD_RANGES[size],
                seed=CORPUS_SEED_BASE + i,
            )
        )
    return clusters


@pytest.fixture(scope="module")
def corpus_plans(corpus):
    return [(peers, min_bandwidth(peers, STREAM)) for peers in corpus]


def test_criterion_1_unicast_boundary():
    start = time.perf_counter()
    with criterion("1 (unicast boundary)"):
        for size in (5, 10, 15, 20, 40, 60):
            pool = generate_peers(
                size,
                DEFAULT_UPLOAD_RANGES[size],
                DEFAULT_DOWNLOAD_RANGES[size],
                seed=pool_seed(42, size),
            )
            for rate in (10000.0, 16000.0):
                stream = StreamParams(package_size=rate * 0.2, delay_bound=0.2)
                outcome = join_cluster(AdmissionBudget(rate, tuple(pool), stream))
                assert len(outcome.admitted) == 1
                assert f"{outcome.efficiency * 100.0:.2f}" == "100.00"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_solver_oracle_equivalence(corpus):
    start = time.perf_counter()
    with criterion("2 (solver oracle equivalence)"):
        assert len(corpus) >= 1000
        assert max(len(c) for c in corpus) == 120
        package = STREAM.package_size
        for peers in corpus:
            sizes = min_bandwidth(peers, STREAM).block_sizes
            uploads = [p.upload for p in peers]
            for row in system_rows(peers, sizes):
                assert abs(row - package) / package < REL
            for got, want in zip(sizes, proportional_sizes(uploads, package)):
                assert _rel_err(got, want) < REL
        assert time.perf_counter() - start < 5.0


def test_criterion_3_identity_suite(corpus_plans):
    with criterion("3 (identity suite)"):
        for peers, plan in corpus_plans:
            assert _rel_err(plan.phase1_time + plan.phase2_time, STREAM.delay_bound) < REL
            assert _rel_err(sum(plan.block_sizes), STREAM.package_size) < REL
            closed_form = total_bandwidth_closed_form(
                [p.upload for p in peers], STREAM.package_size, STREAM.delay_bound
            )
            assert _rel_err(sum(plan.peer_bandwidths), closed_form) < REL
            for s, bw in zip(plan.block_sizes, plan.peer_bandwidths):
                assert _rel_err(s / bw, plan.phase1_time) < REL


def test_criterion_4_simulation_makespan(corpus_plans):
    with criterion("4 (simulation makespan)"):
        for _, plan in corpus_plans:
            n = len(plan.peers)
            trace = simulate(plan)
            assert _rel_err(trace.makespan, STREAM.delay_bound) < REL
            received: dict[str, set[int]] = {p.id: set() for p in plan.peers}
            for event in trace.events:
                blocks = received[event.receiver]
                assert event.block_index not in blocks
                blocks.add(event.block_index)
            full = set(range(1, n + 1))
            assert all(blocks == full for blocks in received.values())
        for n in range(1, 129):
            seen_pairs = set()
            by_step: dict[int, tuple[set[int], set[int]]] = {}
            for step, sender, receiver in build_schedule(n):
                assert sender != receiver
                assert (sender, receiver) not in seen_pairs
                seen_pairs.add((sender, receiver))
                senders, receivers = by_step.setdefault(step, (set(), set()))
                senders.add(sender)
                receivers.add(receiver)
            assert len(seen_pairs) == n * (n - 1)
            everyone = set(range(1, n + 1))
            for senders, receivers in by_step.values():
                assert senders == everyone and receivers == everyone


def test_criterion_5_greedy_equals_oracle_cardinality():
    start = time.perf_counter()
    with criterion("5 (greedy equals oracle cardinality)"):
        rng = random.Random(20_240)
        for _ in range(200):
            size = rng.randint(1, 12)
            pool = generate_peers(
                size,
                DEFAULT_UPLOAD_RANGES[10],
                DEFAULT_DOWNLOAD_RANGES[10],
                seed=rng.randrange(2**32),
            )
            full = allocated_bandwidth(sort_peers(pool), STREAM)
            budget = rng.uniform(STREAM.livestream_bandwidth, full)
            greedy = join_cluster(AdmissionBudget(budget, tuple(pool), STREAM))
            oracle = brute_force_admission(AdmissionBudget(budget, tuple(pool), STREAM))
            assert len(greedy.admitted) == len(oracle.admitted)
            bound = admitted_upper_bound(pool, STREAM, greedy.plan.total_bandwidth)
            assert len(greedy.admitted) <= math.floor(bound + 1e-9)
        assert time.perf_counter() - start < 10.0


def test_criterion_6_trend_reproduction():
    start = time.perf_counter()
    with criterion("6 (trend reproduction)"):
        records = run_admission_sweep(default_scenario(seed=1_234))
        by_size_rate: dict[tuple[int, float], list[tuple[float, int]]] = {}
        by_size_budget: dict[tuple[int, float], list[tuple[float, int]]] = {}
        full_cells: dict[tuple[int, float], list[tuple[float, float]]] = {}
        for r in records:
            by_size_rate.setdefault((r.pool_size, r.livestream_bandwidth), []).append(
                (r.budget, r.n_admitted)
            )
            by_size_budget.setdefault((r.pool_size, r.budget), []).append(
                (r.livestream_bandwidth, r.n_admitted)
            )
            if r.n_admitted == r.pool_size:
                full_cells.setdefault((r.pool_size, r.livestream_bandwidth), []).append(
                    (r.budget, r.efficiency_pct)
                )
        # (a) n never falls as the budget grows, for fixed pool and rate
        for series in by_size_rate.values():
            series.sort()
            for (_, n_small), (_, n_big) in zip(series, series[1:]):
                assert n_small <= n_big
        # (b) n never grows as the stream gets faster, for fixed pool and budget
        for series in by_size_budget.values():
            series.sort()
            for (_, n_slow), (_, n_fast) in zip(series, series[1:]):
                assert n_fast <= n_slow
        # (c) once everyone is admitted, more budget only dilutes efficiency
        assert full_cells
        for series in full_cells.values():
            series.sort()
            for (_, eff_small), (_, eff_big) in zip(series, series[1:]):
                assert eff_big < eff_small
        assert time.perf_counter() - start < 30.0


def test_criterion_7_reproducibility():
    with criterion("7 (reproducibility)"):
        outputs = []
        for _ in range(2):
            records = run_admission_sweep(default_scenario(seed=4_321))
            buf = StringIO()
            write_table(buf, "csv", RECORD_COLUMNS, records)
            outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1]
