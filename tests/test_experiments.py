from __future__ import annotations

import io
import math
import re

import pytest

from acide.core import StreamParams, min_bandwidth
from acide import experiments
from acide.experiments import (
    DEFAULT_BUDGETS,
    DEFAULT_CLUSTER_SIZES,
    DEFAULT_UPLOAD_RANGES,
    ExperimentRecord,
    ScenarioSpec,
    admitted_vs_budget_curve,
    block_size_profile,
    default_scenario,
    generate_peers,
    pool_seed,
    run_admission_sweep,
    scenario_from_dict,
)
from acide.output import (
    CURVE_COLUMNS,
    PROFILE_COLUMNS,
    RECORD_COLUMNS,
    profile_rows,
    write_table,
)
from oracles import close

STREAM = StreamParams(package_size=2000.0, delay_bound=0.2)


class TestGeneratePeers:
    def test_draws_within_ranges_sorted_and_chained(self):
        pool = generate_peers(5, (10000.0, 20000.0), (20000.0, 30000.0), seed=42)
        assert len(pool) == 5
        uploads = [p.upload for p in pool]
        downloads = [p.download for p in pool]
        assert all(10000.0 <= u <= 20000.0 for u in uploads)
        assert all(20000.0 <= d <= 30000.0 for d in downloads)
        assert uploads == sorted(uploads)
        assert max(uploads) <= min(downloads)

    def test_deterministic_per_seed(self):
        a = generate_peers(10, (10000.0, 30000.0), (30000.0, 50000.0), seed=7)
        b = generate_peers(10, (10000.0, 30000.0), (30000.0, 50000.0), seed=7)
        c = generate_peers(10, (10000.0, 30000.0), (30000.0, 50000.0), seed=8)
        assert a == b
        assert a != c

    def test_degenerate_ranges(self):
        pool = generate_peers(4, (12000.0, 12000.0), (12000.0, 12000.0), seed=1)
        assert all(p.upload == 12000.0 and p.download == 12000.0 for p in pool)

    def test_impossible_constraint(self):
        with pytest.raises(ValueError):
            generate_peers(3, (30000.0, 40000.0), (10000.0, 20000.0), seed=1)

    def test_bad_sizes_and_ranges(self):
        with pytest.raises(ValueError):
            generate_peers(0, (1.0, 2.0), (2.0, 3.0), seed=1)
        with pytest.raises(ValueError):
            generate_peers(3, (5.0, 2.0), (2.0, 3.0), seed=1)
        with pytest.raises(ValueError):
            generate_peers(3, (0.0, 2.0), (2.0, 3.0), seed=1)

    def test_ranges_may_start_at_or_below_one(self):
        pool = generate_peers(3, (0.5, 1.0), (1.0, 2.0), seed=1)
        assert all(0.5 <= p.upload <= 1.0 <= p.download <= 2.0 for p in pool)

    def test_whole_float_size_draws_like_the_int(self):
        ranges = GOOD_UPLOAD, GOOD_DOWNLOAD
        assert generate_peers(5.0, *ranges, seed=3) == generate_peers(5, *ranges, seed=3)
        assert admitted_vs_budget_curve(5.0, 10000.0, seed=3) == admitted_vs_budget_curve(5, 10000.0, seed=3)


@pytest.fixture(scope="module")
def records():
    return run_admission_sweep(default_scenario(seed=2024))


@pytest.fixture(scope="module")
def trend_records():
    return run_admission_sweep(default_scenario(seed=314))


class TestSweep:
    def test_full_grid_order(self, records):
        sizes = sorted(set(DEFAULT_CLUSTER_SIZES))
        rates = (10000.0, 12000.0, 14000.0, 16000.0)
        budgets = sorted(DEFAULT_BUDGETS, reverse=True)
        expected = [
            (size, rate, budget) for size in sizes for rate in rates for budget in budgets
        ]
        assert [(r.pool_size, r.livestream_bandwidth, r.budget) for r in records] == expected

    def test_budget_matching_rate_is_unicast(self, records):
        for r in records:
            if r.budget == r.livestream_bandwidth:
                assert r.n_admitted == 1
                assert f"{r.efficiency_pct:.2f}" == "100.00"

    def test_budget_below_rate_is_infeasible(self, records):
        for r in records:
            if r.budget < r.livestream_bandwidth:
                assert r.n_admitted == 0
                assert r.efficiency_pct == 0.0
            else:
                assert r.n_admitted > 0

    def test_admitted_bounded_by_pool(self, records):
        for r in records:
            assert 0 <= r.n_admitted <= r.pool_size
            if r.n_admitted > 0:
                assert 0.0 < r.efficiency_pct <= 100.0
                assert r.allocated_bandwidth <= r.budget

    def test_reproducible(self):
        spec = default_scenario(seed=91)
        assert run_admission_sweep(spec) == run_admission_sweep(spec)


class TestCurve:
    def test_endpoints(self):
        curve = admitted_vs_budget_curve(10, 10000.0, seed=3)
        assert len(curve) == 10
        first_budget, first_n = curve[0]
        assert first_budget == 10000.0 * 0.2 / 0.2
        assert first_n == 1
        last_budget, last_n = curve[-1]
        assert last_n == 10

    def test_non_decreasing(self):
        for seed in (1, 2, 3):
            curve = admitted_vs_budget_curve(20, 12000.0, seed=seed)
            ns = [n for _, n in curve]
            assert ns == sorted(ns)

    def test_one_peer_curve_is_the_livestream_bandwidth(self):
        stream = StreamParams(package_size=10000.0 * 0.2, delay_bound=0.2)
        curve = admitted_vs_budget_curve(1, 10000.0, 42, (10000.0, 20000.0), (20000.0, 30000.0))
        assert curve == [(stream.livestream_bandwidth, 1)]

    def test_unknown_size_needs_ranges(self):
        with pytest.raises(ValueError):
            admitted_vs_budget_curve(7, 10000.0, seed=1)
        curve = admitted_vs_budget_curve(
            7, 10000.0, seed=1, upload_range=(10000.0, 30000.0), download_range=(30000.0, 50000.0)
        )
        assert len(curve) == 7

    def test_infeasible_full_pool_tops_out_at_largest_viable_group(self):
        # Two peers with ~5-6 kbps uploads cannot jointly redistribute a
        # 16 kbps stream, so the grid collapses to the single-peer cost.
        curve = admitted_vs_budget_curve(
            2, 16000.0, seed=9, upload_range=(5000.0, 6000.0), download_range=(20000.0, 30000.0)
        )
        assert [n for _, n in curve] == [1, 1]
        assert all(budget == 16000.0 * 0.2 / 0.2 for budget, _ in curve)


class TestBlockSizeProfile:
    def test_rows_sorted_with_equal_ratio(self):
        profiles = block_size_profile((5, 120), STREAM, seed=11)
        assert set(profiles) == {5, 120}
        for size, rows in profiles.items():
            assert len(rows) == size
            uploads = [u for u, _, _ in rows]
            assert uploads == sorted(uploads)
            ratios = [s / bw for _, s, bw in rows]
            assert all(close(r, ratios[0]) for r in ratios)

    def test_block_sizes_grow_with_upload(self):
        profiles = block_size_profile((120,), STREAM, seed=12)
        sizes = [s for _, s, _ in profiles[120]]
        assert sizes == sorted(sizes)

    def test_fractional_size_refused(self):
        with pytest.raises(ValueError, match="whole number, got 5.7"):
            block_size_profile((5.7,), STREAM, seed=11)

    def test_equal_uploads_split_evenly(self):
        # Custom ranges are profiled as one generate_peers and one min_bandwidth call.
        plan = min_bandwidth(generate_peers(4, (15000.0, 15000.0), (20000.0, 20000.0), seed=13), STREAM)
        assert all(close(s, 500.0) for s in plan.block_sizes)


class TestScenarioIO:
    def test_defaults_fill_missing_keys(self):
        spec = scenario_from_dict({"seed": 9, "cluster_sizes": [5, 10]})
        assert spec.seed == 9
        assert spec.cluster_sizes == (5, 10)
        assert spec.budgets == DEFAULT_BUDGETS
        assert spec.delay_bound == 0.2

    def test_size_without_ranges_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"cluster_sizes": [7]})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"delay_bound_s": 0})
        with pytest.raises(ValueError):
            scenario_from_dict({"budgets_bps": [-1.0]})
        with pytest.raises(ValueError):
            scenario_from_dict({"cluster_sizes": [5], "upload_ranges": {"5": [20000.0, 10000.0]}})


class TestCsvWriters:
    def test_records_csv(self):
        records = [
            ExperimentRecord(5, 10000.0, 12000.0, 1, 10000.0, 83.333333),
            ExperimentRecord(5, 12000.0, 10000.0, 0, 0.0, 0.0),
        ]
        buf = io.StringIO()
        write_table(buf, "csv", RECORD_COLUMNS, records)
        assert buf.getvalue() == (
            "N,livestream_bps,BW_bps,n_admitted,bw_bps,efficiency_pct\n"
            "5,10000.00,12000.00,1,10000.00,83.33\n"
            "5,12000.00,10000.00,0,0.00,0.00\n"
        )

    def test_curve_csv(self):
        buf = io.StringIO()
        write_table(buf, "csv", CURVE_COLUMNS, [(10000.0, 1), (20000.0, 4)])
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(name for name, _ in CURVE_COLUMNS)
        assert lines[1] == "10000.00,1"

    def test_profile_csv_indexes_from_one(self):
        buf = io.StringIO()
        rows = [(10000.0, 444.4444444, 4000.0), (15000.0, 666.6666667, 6000.0)]
        write_table(buf, "csv", PROFILE_COLUMNS, profile_rows(rows))
        lines = buf.getvalue().splitlines()
        assert lines[1].startswith("1,10000.00,444.444444,")
        assert lines[2].startswith("2,15000.00,666.666667,")

    def test_byte_identical_across_runs(self):
        spec = scenario_from_dict({"cluster_sizes": [5, 10], "seed": 77})
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            write_table(buf, "csv", RECORD_COLUMNS, run_admission_sweep(spec))
            outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1]


class TestTrends:
    """Direction-of-change checks over a seeded sweep."""

    def test_more_budget_never_admits_fewer(self, trend_records):
        cells: dict[tuple[int, float], list[tuple[float, int]]] = {}
        for r in trend_records:
            cells.setdefault((r.pool_size, r.livestream_bandwidth), []).append(
                (r.budget, r.n_admitted)
            )
        for series in cells.values():
            series.sort()
            ns = [n for _, n in series]
            assert ns == sorted(ns)

    def test_faster_stream_never_admits_more(self, trend_records):
        cells: dict[tuple[int, float], list[tuple[float, int]]] = {}
        for r in trend_records:
            cells.setdefault((r.pool_size, r.budget), []).append(
                (r.livestream_bandwidth, r.n_admitted)
            )
        for series in cells.values():
            series.sort()
            ns = [n for _, n in series]
            assert ns == sorted(ns, reverse=True)

    def test_efficiency_falls_once_everyone_is_in(self, trend_records):
        cells: dict[tuple[int, float], list[tuple[float, float]]] = {}
        for r in trend_records:
            if r.n_admitted == r.pool_size:
                cells.setdefault((r.pool_size, r.livestream_bandwidth), []).append(
                    (r.budget, r.efficiency_pct)
                )
        assert cells
        for series in cells.values():
            series.sort()
            for (_, eff_small), (_, eff_big) in zip(series, series[1:]):
                assert eff_big < eff_small


def test_pool_seed_distinct_per_size():
    seeds = {pool_seed(42, size) for size in DEFAULT_UPLOAD_RANGES}
    assert len(seeds) == len(DEFAULT_UPLOAD_RANGES)


class TestNonFiniteRangeBounds:
    @pytest.mark.parametrize(
        "upload_range,download_range,message",
        [
            ((10000.0, math.inf), (20000.0, math.inf), "upload_ranges[3] must satisfy 0 < low <= high, both finite, got [10000.0, inf]"),
            ((10000.0, 20000.0), (20000.0, math.inf), "download_ranges[3] must satisfy 0 < low <= high, both finite, got [20000.0, inf]"),
            ((10000.0, math.nan), (20000.0, 30000.0), "upload_ranges[3] must satisfy 0 < low <= high, both finite, got [10000.0, nan]"),
        ],
        ids=["infinite-upload", "infinite-download", "nan-upload"],
    )
    def test_refused_before_drawing(self, upload_range, download_range, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_peers(3, upload_range, download_range, seed=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            admitted_vs_budget_curve(
                3, 10000.0, 1, upload_range=upload_range, download_range=download_range
            )


class TestDefaultScenarioSizes:
    @pytest.mark.parametrize(
        "sizes,message",
        [
            ((7,), "no upload/download range given for cluster size 7"),
            ((5, 7), "no upload/download range given for cluster size 7"),
            ((0,), "cluster sizes must be >= 1, got 0"),
            ((-3,), "cluster sizes must be >= 1, got -3"),
        ],
    )
    def test_size_without_default_ranges_is_a_value_error(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scenario_from_dict({"cluster_sizes": sizes})

    def test_sizes_with_ranges_keep_only_their_ranges(self):
        spec = scenario_from_dict({"cluster_sizes": [10, 5]})
        assert spec.cluster_sizes == (10, 5)
        assert set(spec.upload_ranges) == set(spec.download_ranges) == {5, 10}


GOOD_UPLOAD, GOOD_DOWNLOAD = (10000.0, 20000.0), (20000.0, 30000.0)
RANGE_RULE = "must satisfy 0 < low <= high, both finite, got"

# One row per pool fault: (size, upload range, download range, message). A
# range of None is left out of the entry's mapping, and curve falls back to
# its default ranges, none of which is for size 7.
POOL_FAULTS = {
    "size-0": (0, GOOD_UPLOAD, GOOD_DOWNLOAD, "cluster sizes must be >= 1, got 0"),
    "size-minus-3": (-3, GOOD_UPLOAD, GOOD_DOWNLOAD, "cluster sizes must be >= 1, got -3"),
    "no-ranges": (7, None, None, "no upload/download range given for cluster size 7"),
    "upload-only": (7, GOOD_UPLOAD, None, "no upload/download range given for cluster size 7"),
    "inverted": (5, (20000.0, 10000.0), GOOD_DOWNLOAD, f"upload_ranges[5] {RANGE_RULE} [20000.0, 10000.0]"),
    "nan": (5, GOOD_UPLOAD, (20000.0, math.nan), f"download_ranges[5] {RANGE_RULE} [20000.0, nan]"),
    "infinite": (5, (10000.0, math.inf), GOOD_DOWNLOAD, f"upload_ranges[5] {RANGE_RULE} [10000.0, inf]"),
    "impossible-pair": (
        5, (50000.0, 60000.0), (20000.0, 30000.0),
        "download_ranges[5] must start at or above the top of upload_ranges[5], got 20000.0 below 60000.0",
    ),
    "overlapping-pair": (
        5, (10000.0, 30000.0), (20000.0, 40000.0),
        "download_ranges[5] must start at or above the top of upload_ranges[5], got 20000.0 below 30000.0",
    ),
    "fractional": (5.7, GOOD_UPLOAD, GOOD_DOWNLOAD, "expected a whole number, got 5.7"),
}
SIZE_FAULTS = ("size-0", "size-minus-3", "no-ranges", "fractional")


def _given(size, upload, download, key=int):
    """The upload_ranges and download_ranges keyword arguments, each holding only its range given."""
    return {field: {} if r is None else {key(size): r}
            for field, r in (("upload_ranges", upload), ("download_ranges", download))}


# One column per library entry that draws or stores a pool.
POOL_ENTRIES = {
    "scenario_from_dict": lambda size, up, down: scenario_from_dict(
        {"cluster_sizes": [size], **_given(size, up, down, key=str)}
    ),
    "default_scenario": lambda size, up, down: default_scenario(seed=1)._replace(
        cluster_sizes=(size,), **_given(size, up, down)
    ),
    "generate_peers": lambda size, up, down: generate_peers(size, up, down, seed=1),
    "admitted_vs_budget_curve": lambda size, up, down: admitted_vs_budget_curve(
        size, 10000.0, seed=1, upload_range=up, download_range=down
    ),
    "block_size_profile": lambda size, up, down: block_size_profile((size,), STREAM, seed=1),
}


@pytest.mark.parametrize(
    "fault,entry",
    [
        (fault, entry)
        for fault, (_, upload, download, _) in POOL_FAULTS.items()
        for entry in POOL_ENTRIES
        # generate_peers takes both ranges as arguments, so neither can be missing,
        # a file's fractional size is a malformed scenario (test_cli covers it),
        # and block_size_profile takes no ranges, so only the size faults reach it.
        if (entry != "generate_peers" or None not in (upload, download))
        and (entry != "scenario_from_dict" or fault != "fractional")
        and (entry != "block_size_profile" or fault in SIZE_FAULTS)
    ],
)
def test_pool_fault_has_one_message(fault, entry):
    size, upload, download, message = POOL_FAULTS[fault]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        POOL_ENTRIES[entry](size, upload, download)


class TestSpecConstruction:
    SPEC = dict(delay_bound=0.2, livestream_bandwidths=(10000.0,), budgets=(20000.0,), seed=1)
    IMPOSSIBLE = f"^{re.escape(POOL_FAULTS['impossible-pair'][3])}$"

    def test_impossible_pair_refused_when_built(self):
        with pytest.raises(ValueError, match=self.IMPOSSIBLE):
            ScenarioSpec((5,), {5: (50000.0, 60000.0)}, {5: (20000.0, 30000.0)}, **self.SPEC)

    def test_replace_refuses_impossible_pair(self):
        spec = ScenarioSpec((5,), {5: GOOD_UPLOAD}, {5: GOOD_DOWNLOAD}, **self.SPEC)
        with pytest.raises(ValueError, match=self.IMPOSSIBLE):
            spec._replace(upload_ranges={5: (50000.0, 60000.0)})

    @pytest.mark.parametrize(
        "upload_ranges,download_ranges,message",
        [
            ({5: GOOD_UPLOAD, 7: GOOD_UPLOAD}, {5: GOOD_DOWNLOAD}, "no upload/download range given for cluster size 7"),
            ({5: GOOD_UPLOAD}, {5: GOOD_DOWNLOAD, 0: GOOD_DOWNLOAD}, "cluster sizes must be >= 1, got 0"),
        ],
        ids=["unpaired", "below-1"],
    )
    def test_every_stored_key_follows_the_rule(self, upload_ranges, download_ranges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioSpec((5,), upload_ranges, download_ranges, **self.SPEC)


def test_sweep_draws_a_repeated_size_once(monkeypatch):
    drawn = []

    def counting(size, *args):
        drawn.append(size)
        return generate_peers(size, *args)

    monkeypatch.setattr(experiments, "generate_peers", counting)
    records = run_admission_sweep(scenario_from_dict({"cluster_sizes": [5, 5, 10], "seed": 3}))
    assert drawn == [5, 10]
    assert records == run_admission_sweep(scenario_from_dict({"cluster_sizes": [5, 10], "seed": 3}))
