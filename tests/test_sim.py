from __future__ import annotations

import csv
import io
import json
import math
import random

import pytest

from acide.core import PeerProfile, StreamParams, min_bandwidth, sort_peers
from acide.output import TRACE_COLUMNS, trace_document, write_table
from acide.sim import (
    BASE_STATION,
    playback_check,
    simulate,
    write_trace_json,
)
from oracles import TraceRow, build_schedule, close

STREAM = StreamParams(package_size=2000.0, delay_bound=0.2)
TRIO = [
    PeerProfile("a", 10000.0, 30000.0),
    PeerProfile("b", 15000.0, 30000.0),
    PeerProfile("c", 20000.0, 40000.0),
]


def rows(trace):
    """The trace's rows, each with its TRACE_COLUMNS names."""
    return [TraceRow(*row) for row in trace.events]


def random_cluster(rng, n):
    while True:
        uploads = [rng.uniform(10000.0, 80000.0) for _ in range(n)]
        downloads = [rng.uniform(80000.0, 150000.0) for _ in range(n)]
        if max(uploads) <= min(downloads):
            break
    return sort_peers(
        PeerProfile(f"p{i:03d}", u, d) for i, (u, d) in enumerate(zip(uploads, downloads))
    )


class TestBuildSchedule:
    def test_three_peers(self):
        assert build_schedule(3) == [
            (1, 1, 2),
            (1, 2, 3),
            (1, 3, 1),
            (2, 1, 3),
            (2, 2, 1),
            (2, 3, 2),
        ]

    def test_single_peer_empty(self):
        assert build_schedule(1) == []

    def test_two_peers_swap(self):
        assert build_schedule(2) == [(1, 1, 2), (1, 2, 1)]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            build_schedule(0)

    def test_every_step_is_a_perfect_matching(self):
        for n in range(1, 129):
            by_step: dict[int, list[tuple[int, int]]] = {}
            for step, sender, receiver in build_schedule(n):
                assert sender != receiver
                by_step.setdefault(step, []).append((sender, receiver))
            assert set(by_step) == set(range(1, n))
            for pairs in by_step.values():
                assert sorted(s for s, _ in pairs) == list(range(1, n + 1))
                assert sorted(r for _, r in pairs) == list(range(1, n + 1))

    def test_every_ordered_pair_once(self):
        for n in (2, 5, 16, 64):
            pairs = [(s, r) for _, s, r in build_schedule(n)]
            assert len(pairs) == len(set(pairs)) == n * (n - 1)


class TestSimulate:
    def test_three_peer_trace(self):
        plan = min_bandwidth(TRIO, STREAM)
        trace = simulate(plan)
        step_length = 2000.0 / 45000.0
        assert close(trace.makespan, 0.2)
        phase1 = [e for e in rows(trace) if e.phase == 1]
        assert len(phase1) == 3
        for e in phase1:
            assert e.sender == BASE_STATION
            assert e.start_s == 0.0
            assert close(e.end_s, plan.phase1_time)
        phase2 = [e for e in rows(trace) if e.phase == 2]
        assert len(phase2) == 6
        for e in phase2:
            assert close(e.end_s - e.start_s, step_length)
            assert e.start_s >= plan.phase1_time * (1 - 1e-12)

    def test_single_peer_trace(self):
        plan = min_bandwidth([PeerProfile("solo", 9000.0, 20000.0)], STREAM)
        trace = simulate(plan)
        assert len(trace.events) == 1
        assert close(trace.makespan, 0.2)
        report = playback_check(trace, STREAM)
        assert report.continuous

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_events_are_plain_rows_with_typed_columns(self, n):
        # Tuple equality would pass a namedtuple, or 0 where 0.0 belongs.
        events = simulate(min_bandwidth(random_cluster(random.Random(n), n), STREAM)).events
        assert len(events) == n * n
        for e in events:
            assert type(e) is tuple
            assert len(e) == len(TRACE_COLUMNS)
            assert [type(v) for v in e] == [int, int, str, str, int, float, float, float]

    def test_event_duration_consistent_with_rate(self):
        rng = random.Random(404)
        for _ in range(20):
            plan = min_bandwidth(random_cluster(rng, rng.randint(2, 40)), STREAM)
            sizes = {i + 1: s for i, s in enumerate(plan.block_sizes)}
            for e in rows(simulate(plan)):
                assert close(e.end_s - e.start_s, sizes[e.block] / e.rate_bps)

    def test_each_peer_holds_all_blocks(self):
        rng = random.Random(405)
        for _ in range(20):
            n = rng.randint(1, 60)
            plan = min_bandwidth(random_cluster(rng, n), STREAM)
            received: dict[str, set[int]] = {p.id: set() for p in plan.peers}
            for e in rows(simulate(plan)):
                assert e.block not in received[e.receiver]
                received[e.receiver].add(e.block)
            assert all(blocks == set(range(1, n + 1)) for blocks in received.values())

    def test_one_upload_one_download_per_step(self):
        plan = min_bandwidth(random_cluster(random.Random(406), 11), STREAM)
        trace = simulate(plan)
        for step in range(1, 11):
            step_events = [e for e in rows(trace) if e.phase == 2 and e.step == step]
            assert sorted(e.sender for e in step_events) == sorted(p.id for p in plan.peers)
            assert sorted(e.receiver for e in step_events) == sorted(p.id for p in plan.peers)

    def test_optimal_plan_makespan_hits_delay_bound(self):
        rng = random.Random(407)
        for _ in range(50):
            plan = min_bandwidth(random_cluster(rng, rng.randint(2, 120)), STREAM)
            trace = simulate(plan)
            assert close(trace.makespan, STREAM.delay_bound)
            report = playback_check(trace, STREAM)
            assert report.continuous
            assert abs(report.overshoot) <= 1e-9 * STREAM.delay_bound

    def test_phase2_never_starts_before_phase1_ends(self):
        plan = min_bandwidth(random_cluster(random.Random(408), 17), STREAM)
        trace = simulate(plan)
        phase1_end = max(e.end_s for e in rows(trace) if e.phase == 1)
        for e in rows(trace):
            if e.phase == 2:
                assert e.start_s >= phase1_end * (1 - 1e-12)

    def test_inflated_block_blows_the_deadline(self):
        plan = min_bandwidth(TRIO, STREAM)
        sizes = list(plan.block_sizes)
        sizes[0] *= 1.01
        trace = simulate(plan._replace(block_sizes=tuple(sizes)))
        report = playback_check(trace, STREAM)
        assert not report.continuous
        assert trace.makespan > STREAM.delay_bound
        assert close(report.overshoot, 0.01 * 0.2, rel=1e-6)
        # Block 1 arrives last at the peer two positions around the ring.
        assert report.worst_peer == plan.peers[2].id

    def test_plan_check_builds_no_events(self, event_reads):
        for peers in (TRIO, TRIO[:1], random_cluster(random.Random(409), 40)):
            trace = simulate(min_bandwidth(peers, STREAM))
            assert playback_check(trace, STREAM).continuous
        assert event_reads == []
        assert len(trace.events) == 40 * 40
        assert event_reads == [40 * 40]

    def test_mismatched_plan_rejected(self):
        plan = min_bandwidth(TRIO, STREAM)
        with pytest.raises(ValueError):
            simulate(plan._replace(block_sizes=plan.block_sizes[:2]))
        with pytest.raises(ValueError):
            simulate(plan._replace(peer_bandwidths=(1.0, -5.0, 1.0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["block_sizes", "peer_bandwidths"])
    def test_non_finite_plan_value_rejected_naming_the_peer(self, field, value):
        # A NaN used to pass the plan check, and max() then skipped it: the
        # plan was reported continuous although peer b's completion was NaN.
        plan = min_bandwidth(TRIO, STREAM)
        bad = plan._replace(**{field: (*getattr(plan, field)[:2], value)})
        with pytest.raises(ValueError, match="not positive and finite for peer c$"):
            simulate(bad)


class TestPlaybackCheck:
    def test_delayed_completion_names_the_late_peer(self):
        plan = min_bandwidth(TRIO, STREAM)
        trace = simulate(plan)
        delayed = dict(trace.completion_times)
        delayed["b"] += 0.05
        late = trace._replace(completion_times=delayed, makespan=max(delayed.values()))
        report = playback_check(late, STREAM)
        assert not report.continuous
        assert report.worst_peer == "b"
        assert close(report.overshoot, delayed["b"] - 0.2)


class TestTraceExport:
    def test_csv_columns_and_rows(self):
        trace = simulate(min_bandwidth(TRIO, STREAM))
        buf = io.StringIO()
        write_table(buf, "csv", TRACE_COLUMNS, trace.events)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert tuple(rows[0]) == tuple(name for name, _ in TRACE_COLUMNS)
        assert len(rows) == 1 + len(trace.events)
        first = rows[1]
        assert first[0] == "1" and first[2] == BASE_STATION

    def test_csv_deterministic(self):
        plan = min_bandwidth(TRIO, STREAM)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_table(buf, "csv", TRACE_COLUMNS, simulate(plan).events)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_json_round_trip(self):
        trace = simulate(min_bandwidth(TRIO, STREAM))
        buf = io.StringIO()
        write_trace_json(trace, buf)
        data = json.loads(buf.getvalue())
        assert data == trace_document(trace)
        assert len(data["events"]) == len(trace.events)
        assert set(data["completion_times_s"]) == {"a", "b", "c"}
        assert close(data["makespan_s"], 0.2)
