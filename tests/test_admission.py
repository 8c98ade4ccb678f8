from __future__ import annotations

import math
import random

import pytest

from acide.admission import (
    AdmissionBudget,
    InsufficientBudgetError,
    admitted_upper_bound,
    join_cluster,
)
from acide.core import PeerProfile, StreamParams, sort_peers
from oracles import brute_force_admission, close

STREAM = StreamParams(package_size=2000.0, delay_bound=0.2)


def peer(ident, upload, download=None):
    return PeerProfile(ident, upload, download if download is not None else 2 * upload)


TRIO = (peer("a", 10000.0, 30000.0), peer("b", 15000.0, 30000.0), peer("c", 20000.0, 40000.0))


def draw_pool(rng, n, u_range=(10000.0, 30000.0), d_range=(30000.0, 50000.0)):
    while True:
        uploads = [rng.uniform(*u_range) for _ in range(n)]
        downloads = [rng.uniform(*d_range) for _ in range(n)]
        if max(uploads) <= min(downloads):
            break
    return tuple(
        PeerProfile(f"p{i:03d}", u, d) for i, (u, d) in enumerate(zip(uploads, downloads))
    )


class TestAdmissionBudget:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            AdmissionBudget(0.0, TRIO, STREAM)

    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError):
            AdmissionBudget(10000.0, (), STREAM)


class TestJoinCluster:
    def test_drops_weakest_until_budget_fits(self):
        outcome = join_cluster(AdmissionBudget(15000.0, TRIO, STREAM))
        assert [p.id for p in outcome.admitted] == ["b", "c"]
        assert [p.id for p in outcome.rejected] == ["a"]
        assert close(outcome.plan.total_bandwidth, 14000.0)
        assert close(outcome.efficiency, 14000.0 / 15000.0)

    def test_budget_at_livestream_rate_admits_one(self):
        outcome = join_cluster(AdmissionBudget(10000.0, TRIO, STREAM))
        assert len(outcome.admitted) == 1
        assert outcome.plan.total_bandwidth == 10000.0
        assert outcome.efficiency == 1.0

    def test_budget_below_livestream_rate(self):
        with pytest.raises(InsufficientBudgetError) as err:
            join_cluster(AdmissionBudget(9000.0, TRIO, STREAM))
        assert err.value.budget == 9000.0
        assert err.value.livestream_bandwidth == 10000.0

    def test_budget_at_full_cluster_bandwidth_admits_all(self):
        from acide.core import allocated_bandwidth

        full = allocated_bandwidth(sort_peers(TRIO), STREAM)
        outcome = join_cluster(AdmissionBudget(full, TRIO, STREAM))
        assert len(outcome.admitted) == 3
        assert outcome.efficiency == 1.0

    def test_admits_top_uploaders(self):
        rng = random.Random(5150)
        for _ in range(50):
            pool = draw_pool(rng, rng.randint(2, 25))
            budget = rng.uniform(STREAM.livestream_bandwidth, 40000.0)
            outcome = join_cluster(AdmissionBudget(budget, pool, STREAM))
            by_upload = sort_peers(pool)
            n = len(outcome.admitted)
            assert list(outcome.admitted) == by_upload[len(pool) - n :]
            assert list(outcome.rejected) == by_upload[: len(pool) - n]
            assert outcome.plan.total_bandwidth <= budget
            assert 0 < outcome.efficiency <= 1.0

    def test_skips_infeasible_suffixes(self):
        # Full pool: 0.2 * 31000 < 2 * 3200, no allocation exists at any
        # budget; the greedy loop must walk through it and admit the pair.
        pool = (peer("slow", 2000.0, 80000.0), peer("mid", 12000.0, 80000.0), peer("fast", 17000.0, 80000.0))
        fast_stream = StreamParams(package_size=16000.0 * 0.2, delay_bound=0.2)
        outcome = join_cluster(AdmissionBudget(60000.0, pool, fast_stream))
        assert [p.id for p in outcome.admitted] == ["mid", "fast"]

    def test_boundary_budget_admits_exactly_that_suffix(self):
        from acide.core import allocated_bandwidth

        pool = draw_pool(random.Random(2718), 12)
        ordered = sort_peers(pool)
        for m in range(1, 13):
            cost = allocated_bandwidth(ordered[12 - m :], STREAM)
            greedy = join_cluster(AdmissionBudget(cost, pool, STREAM))
            assert len(greedy.admitted) == m
            oracle = brute_force_admission(AdmissionBudget(cost, pool, STREAM))
            assert len(oracle.admitted) == m

    def test_monotone_in_budget(self):
        rng = random.Random(81)
        pool = draw_pool(rng, 15)
        sizes = []
        for budget in range(10000, 30001, 1000):
            try:
                sizes.append(len(join_cluster(AdmissionBudget(float(budget), pool, STREAM)).admitted))
            except InsufficientBudgetError:
                sizes.append(0)
        assert sizes == sorted(sizes)

    def test_monotone_in_livestream_rate(self):
        rng = random.Random(82)
        pool = draw_pool(rng, 15)
        budget = 18000.0
        previous = None
        for rate in (10000.0, 12000.0, 14000.0, 16000.0):
            stream = StreamParams(package_size=rate * 0.2, delay_bound=0.2)
            try:
                n = len(join_cluster(AdmissionBudget(budget, pool, stream)).admitted)
            except InsufficientBudgetError:
                n = 0
            if previous is not None:
                assert n <= previous
            previous = n

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_upload_not_positive_and_finite_raises(self, bad):
        # A generous budget: with the bad peer unpriced, b alone would be admitted.
        pool = (PeerProfile("a", bad, 1e5), peer("b", 5e4, 1e5))
        with pytest.raises(ValueError, match="peer a has an upload that is not positive and finite"):
            join_cluster(AdmissionBudget(1e6, pool, STREAM))


class TestAdmittedUpperBound:
    def test_three_peer_example(self):
        bound = admitted_upper_bound(TRIO, STREAM, 14000.0)
        assert close(bound, 1.0 + 4.5 - 45000.0 / 14000.0)
        assert math.floor(bound) == 2

    def test_at_livestream_rate_bound_is_one(self):
        assert admitted_upper_bound(TRIO, STREAM, STREAM.livestream_bandwidth) == 1.0

    def test_full_admission_bound_equals_pool_size(self):
        # Equal uploads at the stream rate: a budget of N * rate covers all N.
        pool = tuple(peer(f"p{i}", 10000.0, 30000.0) for i in range(6))
        bound = admitted_upper_bound(pool, STREAM, 6 * STREAM.livestream_bandwidth)
        assert close(bound, 6.0)

    def test_below_livestream_rate_rejected(self):
        with pytest.raises(ValueError):
            admitted_upper_bound(TRIO, STREAM, 9999.0)

    def test_greedy_result_respects_bound(self):
        rng = random.Random(4242)
        for _ in range(100):
            pool = draw_pool(rng, rng.randint(1, 20))
            budget = rng.uniform(STREAM.livestream_bandwidth, 45000.0)
            try:
                outcome = join_cluster(AdmissionBudget(budget, pool, STREAM))
            except InsufficientBudgetError:
                continue
            bound = admitted_upper_bound(pool, STREAM, outcome.plan.total_bandwidth)
            assert len(outcome.admitted) <= math.floor(bound + 1e-9)


class TestBruteForceAdmission:
    def test_matches_hand_worked_example(self):
        outcome = brute_force_admission(AdmissionBudget(15000.0, TRIO, STREAM))
        assert [p.id for p in outcome.admitted] == ["b", "c"]
        assert close(outcome.plan.total_bandwidth, 14000.0)

    def test_large_budget_admits_everyone(self):
        outcome = brute_force_admission(AdmissionBudget(1e9, TRIO, STREAM))
        assert len(outcome.admitted) == 3

    def test_budget_at_livestream_rate_picks_lowest_id_singleton(self):
        outcome = brute_force_admission(AdmissionBudget(10000.0, TRIO, STREAM))
        assert [p.id for p in outcome.admitted] == ["a"]

    def test_tie_break_on_equal_uploads(self):
        pool = tuple(peer(i, 10000.0, 30000.0) for i in ("d", "b", "c", "a"))
        # Any pair costs 20000 bps, any triple 30000; the lexicographically
        # smallest id pair wins the tie.
        outcome = brute_force_admission(AdmissionBudget(20000.000001, pool, STREAM))
        assert sorted(p.id for p in outcome.admitted) == ["a", "b"]

    def test_too_many_candidates_refused(self):
        pool = tuple(peer(f"p{i:02d}", 10000.0 + i, 40000.0) for i in range(17))
        with pytest.raises(ValueError):
            brute_force_admission(AdmissionBudget(20000.0, pool, STREAM))

    def test_no_feasible_subset(self):
        with pytest.raises(InsufficientBudgetError):
            brute_force_admission(AdmissionBudget(9500.0, TRIO, STREAM))

    def test_agrees_with_greedy_on_cardinality(self):
        from acide.core import allocated_bandwidth

        rng = random.Random(1117)
        for _ in range(60):
            pool = draw_pool(rng, rng.randint(1, 10))
            full = allocated_bandwidth(sort_peers(pool), STREAM)
            hi = full if math.isfinite(full) else 4 * STREAM.livestream_bandwidth
            budget = rng.uniform(STREAM.livestream_bandwidth, hi)
            greedy = join_cluster(AdmissionBudget(budget, pool, STREAM))
            oracle = brute_force_admission(AdmissionBudget(budget, pool, STREAM))
            assert len(greedy.admitted) == len(oracle.admitted)
