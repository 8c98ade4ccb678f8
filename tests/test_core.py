from __future__ import annotations

import ast
import math
import random
import re
from pathlib import Path

import pytest

from acide.core import (
    DUPLICATE_ID,
    STREAM_OVER_CLUSTER_DOWNLOAD,
    STREAM_OVER_MEAN_UPLOAD,
    UPLOAD_OVER_DOWNLOAD,
    UPLOAD_OVER_MIN_DOWNLOAD,
    PeerProfile,
    StreamParams,
    min_bandwidth,
    number,
    sort_peers,
    validate_cluster,
)
from oracles import (
    allocated_bandwidth,
    alpha_coefficients,
    close,
    dense_block_sizes_exact,
    proportional_sizes,
    system_rows,
    total_bandwidth_closed_form,
)


def peer(ident, upload, download=None):
    return PeerProfile(id=ident, upload=upload, download=download if download is not None else 2 * upload)


STREAM = StreamParams(package_size=2000.0, delay_bound=0.2)
TRIO = [peer("a", 10000.0, 20000.0), peer("b", 15000.0, 30000.0), peer("c", 20000.0, 40000.0)]


def random_cluster(rng, n, u_range, d_range):
    while True:
        uploads = [rng.uniform(*u_range) for _ in range(n)]
        downloads = [rng.uniform(*d_range) for _ in range(n)]
        if max(uploads) <= min(downloads):
            break
    return sort_peers(
        PeerProfile(f"p{i:03d}", u, d) for i, (u, d) in enumerate(zip(uploads, downloads))
    )


class TestStreamParams:
    def test_livestream_bandwidth(self):
        assert STREAM.livestream_bandwidth == 10000.0

    @pytest.mark.parametrize("package,delay", [(0, 0.2), (-1, 0.2), (2000, 0), (2000, -0.5)])
    def test_rejects_non_positive(self, package, delay):
        with pytest.raises(ValueError):
            StreamParams(package_size=package, delay_bound=delay)

    @pytest.mark.parametrize(
        "package,delay", [(math.nan, 0.2), (math.inf, 0.2), (2000, math.nan), (2000, math.inf)]
    )
    def test_rejects_non_finite(self, package, delay):
        with pytest.raises(ValueError):
            StreamParams(package_size=package, delay_bound=delay)

    @pytest.mark.parametrize(
        "package,delay,rate", [(1e-300, 1e297, "0.0"), (1e308, 1e-303, "inf")], ids=["underflow", "overflow"]
    )
    def test_rejects_a_finite_pair_whose_rate_is_not_positive_and_finite(self, package, delay, rate):
        text = f"livestream bandwidth {package} bits / {delay} s must be positive and finite, got {rate} bps"
        message = f"^{re.escape(text)}$"
        with pytest.raises(ValueError, match=message):
            StreamParams(package, delay)
        # Copies are checked like new values.
        with pytest.raises(ValueError, match=message):
            STREAM._replace(package_size=package, delay_bound=delay)
        with pytest.raises(ValueError, match=message):
            StreamParams._make([package, delay])

    def test_subnormal_rate_is_kept(self):
        assert StreamParams(1e-300, 1e8).livestream_bandwidth == 1e-308


class TestValidateCluster:
    def test_ok_cluster(self):
        peers = [peer("a", 10000.0, 20000.0), peer("b", 20000.0, 30000.0)]
        report = validate_cluster(peers, STREAM)
        assert report.ok
        assert [v.code for v in report.violations] == []

    def test_mean_upload_violation(self):
        peers = [peer("a", 10000.0, 30000.0), peer("b", 10000.0, 30000.0)]
        fast = StreamParams(package_size=16000.0 * 0.2, delay_bound=0.2)
        report = validate_cluster(peers, fast)
        assert not report.ok
        assert [v.code for v in report.violations] == [STREAM_OVER_MEAN_UPLOAD]

    @pytest.mark.parametrize("uploads", [(6000.0, 6000.0), (6000.0,)], ids=["pair", "single"])
    def test_mean_upload_message_says_what_the_rule_means(self, uploads):
        # The pair is plannable (60000 bps), but costs more than unicasting
        # to both peers (20000 bps); a single peer costs exactly the unicast r.
        peers = [peer(f"p{i}", u, 20000.0) for i, u in enumerate(uploads)]
        n = len(peers)
        assert validate_cluster(peers, STREAM).violations[-1].message == (
            "livestream bandwidth 10000.00 bps exceeds the mean upload 6000.00 bps: the cluster costs "
            f"at least as much as unicasting the stream to each of its {n} peer(s)"
        )
        assert min_bandwidth(peers, STREAM).total_bandwidth >= n * STREAM.livestream_bandwidth
        assert close(allocated_bandwidth(peers, STREAM), {1: 10000.0, 2: 60000.0}[n])

    def test_single_peer_at_mean_upload_boundary(self):
        # rate == mean upload is feasible; only a roomy download keeps the
        # cluster-download check satisfied too.
        report = validate_cluster([peer("solo", 10000.0, 20000.0)], STREAM)
        assert report.ok

    def test_stream_at_cluster_download_total_is_reported(self):
        # The aggregate-download condition is strict: equality is a violation.
        report = validate_cluster([peer("solo", 10000.0, 10000.0)], STREAM)
        assert [v.code for v in report.violations] == [STREAM_OVER_CLUSTER_DOWNLOAD]

    def test_upload_over_download_reported_per_condition(self):
        peers = [PeerProfile("bad", 25000.0, 20000.0), peer("ok", 10000.0, 30000.0)]
        report = validate_cluster(peers, STREAM)
        assert UPLOAD_OVER_DOWNLOAD in [v.code for v in report.violations]
        assert UPLOAD_OVER_MIN_DOWNLOAD in [v.code for v in report.violations]
        assert "bad" in [v for v in report.violations if v.code == UPLOAD_OVER_DOWNLOAD][0].message

    def test_cross_peer_download_check(self):
        # Each peer consistent on its own, but a's upload exceeds b's download.
        peers = [PeerProfile("a", 25000.0, 40000.0), PeerProfile("b", 10000.0, 20000.0)]
        report = validate_cluster(peers, STREAM)
        assert [v.code for v in report.violations] == [UPLOAD_OVER_MIN_DOWNLOAD]

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            validate_cluster([], STREAM)

    def test_duplicate_ids_reported(self):
        peers = [peer("a", 10000.0), peer("a", 15000.0), peer("c", 20000.0), peer("c", 20000.0)]
        report = validate_cluster(peers, STREAM)
        assert [v.code for v in report.violations] == [DUPLICATE_ID]
        assert "a, c" in report.violations[0].message


class TestSortPeers:
    def test_orders_by_upload(self):
        shuffled = [peer("c", 20000.0), peer("a", 10000.0), peer("b", 15000.0)]
        assert [p.upload for p in sort_peers(shuffled)] == [10000.0, 15000.0, 20000.0]

    def test_tie_break_download_then_id(self):
        peers = [
            PeerProfile("b", 10000.0, 20000.0),
            PeerProfile("a", 10000.0, 20000.0),
            PeerProfile("z", 10000.0, 15000.0),
        ]
        assert [p.id for p in sort_peers(peers)] == ["z", "a", "b"]

    def test_idempotent(self):
        once = sort_peers(TRIO)
        assert sort_peers(once) == once


class TestAlphaCoefficients:
    def test_three_peer_values(self):
        alphas = alpha_coefficients(sort_peers(TRIO)).values
        assert close(alphas[0], 25000.0 / 15000.0)
        assert close(alphas[1], 45000.0 / 20000.0)

    def test_equal_uploads(self):
        pair = [peer("a", 12000.0), peer("b", 12000.0)]
        assert alpha_coefficients(pair).values == (2.0,)

    def test_single_peer_empty(self):
        assert alpha_coefficients([peer("solo", 10000.0)]).values == ()

    def test_all_at_least_one(self):
        rng = random.Random(9)
        for _ in range(50):
            peers = random_cluster(rng, rng.randint(2, 40), (10000, 90000), (90000, 150000))
            assert all(a >= 1.0 for a in alpha_coefficients(peers).values)


class TestSolveBlockSizes:
    def test_three_peer_example(self):
        sizes = min_bandwidth(sort_peers(TRIO), STREAM).block_sizes
        expected = [2000.0 * u / 45000.0 for u in (10000.0, 15000.0, 20000.0)]
        assert all(close(s, e) for s, e in zip(sizes, expected))

    def test_single_peer_gets_package(self):
        assert list(min_bandwidth([peer("solo", 10000.0)], STREAM).block_sizes) == [2000.0]

    def test_equal_uploads_split_evenly(self):
        peers = [peer(f"p{i}", 15000.0) for i in range(4)]
        sizes = min_bandwidth(sort_peers(peers), STREAM).block_sizes
        assert all(close(s, 500.0) for s in sizes)

    def test_satisfies_every_system_row(self):
        rng = random.Random(31)
        for _ in range(100):
            peers = random_cluster(rng, rng.randint(1, 60), (10000, 70000), (70000, 130000))
            sizes = min_bandwidth(peers, STREAM).block_sizes
            for row in system_rows(peers, sizes):
                assert abs(row - STREAM.package_size) / STREAM.package_size < 1e-9

    def test_matches_exact_rational_dense_solve(self):
        rng = random.Random(55)
        for _ in range(25):
            peers = random_cluster(rng, rng.randint(1, 12), (10000, 50000), (50000, 90000))
            got = min_bandwidth(peers, STREAM).block_sizes
            want = dense_block_sizes_exact([p.upload for p in peers], STREAM.package_size)
            assert all(close(g, w) for g, w in zip(got, want))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_bandwidth([], STREAM)


class TestNumber:
    @pytest.mark.parametrize("value,want", [(5, 5), (5.0, 5), ("5", 5), (-3.0, -3)])
    def test_whole_numbers_are_ints(self, value, want):
        assert number(value, int) == want
        assert type(number(value, int)) is int

    @pytest.mark.parametrize("value", [5.7, 1.9, -0.5, math.nan, math.inf])
    def test_fractional_or_non_finite_int_refused(self, value):
        with pytest.raises(ValueError, match="whole number"):
            number(value, int)

    def test_floats_keep_their_fraction(self):
        assert number(5.7) == 5.7

    @pytest.mark.parametrize("kind", [int, float])
    def test_booleans_refused(self, kind):
        with pytest.raises(TypeError):
            number(True, kind)


class TestAllocatedBandwidth:
    def test_three_peer_example(self):
        assert close(allocated_bandwidth(sort_peers(TRIO), STREAM), 18000.0)

    def test_single_peer_collapses_to_livestream_rate(self):
        assert allocated_bandwidth([peer("solo", 7000.0)], STREAM) == STREAM.livestream_bandwidth

    def test_two_peer_example(self):
        pair = [peer("b", 15000.0), peer("c", 20000.0)]
        assert close(allocated_bandwidth(pair, STREAM), 14000.0)

    def test_matches_product_form(self):
        rng = random.Random(77)
        for _ in range(200):
            peers = random_cluster(rng, rng.randint(1, 80), (10000, 80000), (80000, 150000))
            got = allocated_bandwidth(peers, STREAM)
            want = total_bandwidth_closed_form([p.upload for p in peers], 2000.0, 0.2)
            assert close(got, want)

    def test_infeasible_returns_inf(self):
        # 2 peers at 10000 bps cannot redistribute a 32000 bps stream.
        fast = StreamParams(package_size=16000.0 * 0.2 * 2, delay_bound=0.2)
        peers = [peer("a", 10000.0), peer("b", 10000.0)]
        assert math.isinf(allocated_bandwidth(peers, fast))


class TestMinBandwidth:
    def test_three_peer_plan(self):
        plan = min_bandwidth(TRIO, STREAM)
        assert close(plan.phase2_time, 4000.0 / 45000.0)
        assert close(plan.phase1_time, 0.2 - 4000.0 / 45000.0)
        assert close(plan.total_bandwidth, 18000.0)
        for got, want in zip(plan.peer_bandwidths, (4000.0, 6000.0, 8000.0)):
            assert close(got, want)

    def test_accepts_unsorted_input(self):
        plan = min_bandwidth(list(reversed(TRIO)), STREAM)
        assert [p.id for p in plan.peers] == ["a", "b", "c"]

    def test_single_peer_degenerates_to_unicast(self):
        plan = min_bandwidth([peer("solo", 12000.0)], STREAM)
        assert plan.phase2_time == 0.0
        assert plan.phase1_time == 0.2
        assert plan.total_bandwidth == 10000.0
        assert plan.peer_bandwidths == (10000.0,)

    def test_symmetric_pair(self):
        plan = min_bandwidth([peer("a", 10000.0), peer("b", 10000.0)], STREAM)
        assert all(close(s, 1000.0) for s in plan.block_sizes)
        assert close(plan.phase1_time, 0.1) and close(plan.phase2_time, 0.1)
        assert all(close(bw, 10000.0) for bw in plan.peer_bandwidths)
        assert close(plan.total_bandwidth, 20000.0)

    def test_infeasible_error_carries_details(self):
        fast = StreamParams(package_size=16000.0 * 0.2 * 2, delay_bound=0.2)
        peers = [peer("a", 10000.0), peer("b", 10000.0)]
        message = (
            "no feasible allocation for n=2 peers with total upload 20000.00 bps: "
            "livestream bandwidth 32000.00 bps exceeds what the cluster can redistribute "
            "within the delay bound"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            min_bandwidth(peers, fast)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_bandwidth([], STREAM)


@pytest.fixture(scope="module")
def plans():
    rng = random.Random(123)
    out = []
    for _ in range(300):
        n = rng.randint(1, 120)
        peers = random_cluster(rng, n, (10000, 100000), (100000, 190000))
        out.append((peers, min_bandwidth(peers, STREAM)))
    return out


class TestPlanIdentities:
    """Tolerance-level identities every solved plan must satisfy."""

    def test_sizes_sum_to_package(self, plans):
        for _, plan in plans:
            assert close(sum(plan.block_sizes), STREAM.package_size)

    def test_transfer_times_all_equal_phase1(self, plans):
        for _, plan in plans:
            for s, bw in zip(plan.block_sizes, plan.peer_bandwidths):
                assert close(s / bw, plan.phase1_time)

    def test_phase_times_fill_delay_bound(self, plans):
        for _, plan in plans:
            assert close(plan.phase1_time + plan.phase2_time, STREAM.delay_bound)

    def test_total_matches_sum_of_peer_bandwidths(self, plans):
        for _, plan in plans:
            assert close(plan.total_bandwidth, sum(plan.peer_bandwidths))

    def test_total_at_least_livestream_rate(self, plans):
        for peers, plan in plans:
            if len(peers) == 1:
                assert plan.total_bandwidth == STREAM.livestream_bandwidth
            else:
                assert plan.total_bandwidth > STREAM.livestream_bandwidth

    def test_peer_bandwidth_within_upload_when_feasible(self, plans):
        for peers, plan in plans:
            if STREAM.livestream_bandwidth <= sum(p.upload for p in peers) / len(peers):
                for p, bw in zip(plan.peers, plan.peer_bandwidths):
                    assert bw <= p.upload * (1 + 1e-9)

    def test_raising_one_upload_never_raises_total(self, plans):
        for peers, _ in plans[:60]:
            base = allocated_bandwidth(peers, STREAM)
            bumped = list(peers)
            idx = len(bumped) // 2
            bumped[idx] = PeerProfile(bumped[idx].id, bumped[idx].upload * 1.1, bumped[idx].download * 1.1)
            improved = allocated_bandwidth(sort_peers(bumped), STREAM)
            assert improved <= base * (1 + 1e-12)
            if len(peers) > 1:
                assert improved < base

    def test_scaling_package_and_delay_together_keeps_bandwidth(self, plans):
        for peers, plan in plans[:40]:
            scaled = StreamParams(package_size=STREAM.package_size * 3.5, delay_bound=STREAM.delay_bound * 3.5)
            assert close(allocated_bandwidth(peers, scaled), plan.total_bandwidth)

    def test_scaling_uploads_and_rate_scales_bandwidth(self, plans):
        c = 2.5
        for peers, plan in plans[:40]:
            scaled_peers = sort_peers(
                PeerProfile(p.id, p.upload * c, p.download * c) for p in peers
            )
            scaled_stream = StreamParams(package_size=STREAM.package_size * c, delay_bound=STREAM.delay_bound)
            assert close(allocated_bandwidth(scaled_peers, scaled_stream), c * plan.total_bandwidth)

    def test_solution_is_proportional_to_uploads(self, plans):
        for peers, plan in plans:
            expected = proportional_sizes([p.upload for p in peers], STREAM.package_size)
            for got, want in zip(plan.block_sizes, expected):
                assert close(got, want)


class TestStreamParamsNamesTheDelayFirst:
    @pytest.mark.parametrize("delay", [0.0, -0.005, math.nan])
    def test_bad_delay_is_named_even_when_the_package_follows_from_it(self, delay):
        # A package size derived as rate * delay is bad exactly when the delay is.
        with pytest.raises(ValueError, match="^delay_bound must be positive and finite"):
            StreamParams(package_size=10000.0 * delay, delay_bound=delay)

    def test_bad_package_with_good_delay_is_named(self):
        with pytest.raises(ValueError, match="^package_size must be positive and finite"):
            StreamParams(package_size=0.0, delay_bound=0.2)


class TestValidateClusterBandwidths:
    # PeerProfile refuses a bandwidth that is not positive and finite, so no rule reports one.
    def test_good_cluster_has_no_bandwidth_violation(self):
        assert validate_cluster(TRIO, STREAM).ok

    def test_overflowing_sum_of_finite_bandwidths_is_not_reported(self):
        huge = [peer(f"p{i}", 1e308, 1.5e308) for i in range(3)]
        assert validate_cluster(huge, STREAM).ok


def test_library_never_calls_the_builtin_sum():
    # From Python 3.12 on sum() compensates its rounding, so a verdict priced
    # with it could differ across interpreters and from upload_total's.
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "acide").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []
