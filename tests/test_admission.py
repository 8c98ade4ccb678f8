from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acide.admission import AdmissionBudget, InsufficientBudgetError, join_cluster
from acide.core import (
    DUPLICATE_ID,
    UPLOAD_OVER_DOWNLOAD,
    AssumptionViolation,
    ClusterRefused,
    PeerProfile,
    StreamParams,
    sort_peers,
)
from oracles import admitted_upper_bound, allocated_bandwidth, brute_force_admission, close

STREAM = StreamParams(package_size=2000.0, delay_bound=0.2)


def peer(ident, upload, download=None):
    return PeerProfile(ident, upload, download if download is not None else 2 * upload)


TRIO = (peer("a", 10000.0, 30000.0), peer("b", 15000.0, 30000.0), peer("c", 20000.0, 40000.0))


MONOTONE = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Stream rates as shares of the pool's mean upload, up to where even the whole pool cannot be planned.
shares = st.floats(0.01, 1.5)
# Factors from a first budget or rate to a second one close by, so that both can sit near one step.
step_ups = st.sampled_from([1.0, 1.0 + 2**-52, 1.001]) | st.floats(1.0, 1.05) | st.floats(1.0, 2.0)


@st.composite
def valid_pools(draw):
    """Pools AdmissionBudget accepts: distinct ids, each upload at most its download."""
    uploads = draw(st.lists(st.floats(1e3, 1e6), min_size=1, max_size=15))
    return tuple(PeerProfile(f"p{i:02d}", u, u * draw(st.floats(1.0, 3.0))) for i, u in enumerate(uploads))


def stream_at(pool, share):
    """A 200 ms stream whose rate is `share` of the pool's mean upload."""
    rate = sum(p.upload for p in pool) / len(pool) * share
    return StreamParams(package_size=rate * 0.2, delay_bound=0.2)


def near_suffix_costs(pool, stream):
    """Budgets at or near the finite cost of an upload-sorted suffix, where the admitted count steps."""
    ordered = sort_peers(pool)
    costs = [cost for r in range(len(ordered)) if math.isfinite(cost := allocated_bandwidth(ordered[r:], stream))]
    return st.sampled_from(costs).flatmap(lambda cost: st.sampled_from(
        [cost, math.nextafter(cost, 0.0), math.nextafter(cost, math.inf)]) | st.floats(0.95 * cost, 1.05 * cost))


def admitted_count(pool, budget, stream):
    """How many peers join_cluster admits; a budget below the stream rate admits none."""
    try:
        return len(join_cluster(AdmissionBudget(budget, pool, stream)).admitted)
    except InsufficientBudgetError:
        return 0


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

    def test_refuses_a_candidate_whose_upload_exceeds_its_download(self):
        with pytest.raises(ClusterRefused) as err:
            AdmissionBudget(1e6, (*TRIO, PeerProfile("x", 30000.0, 20000.0)), STREAM)
        assert err.value.violations == (
            AssumptionViolation(UPLOAD_OVER_DOWNLOAD, "upload exceeds download for peer(s): x"),
        )

    def test_candidates_are_checked_before_the_budget(self):
        # Every violation, in validate_cluster's order; the bad budget is not reached.
        pool = (*TRIO, PeerProfile("a", 30000.0, 20000.0))
        with pytest.raises(ClusterRefused) as err:
            AdmissionBudget(0.0, pool, STREAM)
        assert [v.code for v in err.value.violations] == [DUPLICATE_ID, UPLOAD_OVER_DOWNLOAD]
        assert isinstance(err.value, ValueError)
        assert str(err.value) == (
            "duplicate-id: peer id(s) given more than once: a; "
            "upload-over-download: upload exceeds download for peer(s): a"
        )


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
        pool = draw_pool(random.Random(2718), 12)
        ordered = sort_peers(pool)
        for m in range(1, 13):
            cost = allocated_bandwidth(ordered[12 - m :], STREAM)
            greedy = join_cluster(AdmissionBudget(cost, pool, STREAM))
            assert len(greedy.admitted) == m
            oracle = brute_force_admission(AdmissionBudget(cost, pool, STREAM))
            assert len(oracle.admitted) == m

    @MONOTONE
    @given(pool=valid_pools(), share=shares, data=st.data())
    def test_monotone_in_budget(self, pool, share, data):
        stream = stream_at(pool, share)
        first = data.draw(near_suffix_costs(pool, stream))
        low, high = sorted((first, data.draw(near_suffix_costs(pool, stream) | step_ups.map(first.__mul__))))
        assert admitted_count(pool, low, stream) <= admitted_count(pool, high, stream)

    @MONOTONE
    @given(pool=valid_pools(), share=shares, data=st.data())
    def test_monotone_in_livestream_rate(self, pool, share, data):
        budget = data.draw(near_suffix_costs(pool, stream_at(pool, share)))
        first = share * data.draw(st.floats(0.8, 1.25))
        low, high = sorted((first, data.draw(st.floats(0.8, 1.25).map(share.__mul__) | step_ups.map(first.__mul__))))
        assert admitted_count(pool, budget, stream_at(pool, low)) >= admitted_count(pool, budget, stream_at(pool, high))


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
        rng = random.Random(1117)
        for _ in range(60):
            pool = draw_pool(rng, rng.randint(1, 10))
            full = allocated_bandwidth(sort_peers(pool), STREAM)
            hi = full if math.isfinite(full) else 4 * STREAM.livestream_bandwidth
            budget = rng.uniform(STREAM.livestream_bandwidth, hi)
            greedy = join_cluster(AdmissionBudget(budget, pool, STREAM))
            oracle = brute_force_admission(AdmissionBudget(budget, pool, STREAM))
            assert len(greedy.admitted) == len(oracle.admitted)
