"""Tests for the benchmark's output checks.

Each check must accept what acide really prints and reject a slightly
wrong output. Run from the repository root:

    python -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import checks
import workloads
from acide import cli, core

FLAGS = workloads.STREAM_FLAGS


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def peers_file(tmp_path, n: int, seed: int = 3):
    peers = workloads.draw_peers(random.Random(seed), n, "p")
    path = tmp_path / "peers.csv"
    workloads.write_peers_csv(path, peers)
    return peers, str(path)


def test_requirements_match_the_three_peer_example():
    # The acide README's example: 18000 bps for all three, 14000 for the top two.
    reqs = checks.requirements([Fraction(10000), Fraction(15000), Fraction(20000)], Fraction(2000), Fraction(1, 5))
    assert reqs == [10000, 14000, 18000]
    assert checks.largest_fitting(reqs, Fraction(15000)) == 2
    assert checks.largest_fitting(reqs, Fraction(9999)) == 0


def test_requirements_mark_infeasible_clusters():
    # Two peers at 1000 bps cannot exchange a 2000-bit package within 0.2 s.
    reqs = checks.requirements([Fraction(1000), Fraction(1000)], Fraction(2000), Fraction(1, 5))
    assert reqs[0] == 10000 and reqs[1] == float("inf")


def test_simulate_stdout(tmp_path):
    peers, path = peers_file(tmp_path, 12)
    out = run_cli(["simulate", "--input", path, *FLAGS])
    makespan = checks.expected_makespan(workloads.exact_uploads(peers), workloads.PACKAGE, workloads.DELAY)
    checks.check_simulate_stdout(out, workloads.DELAY, makespan)
    for wrong in (out.replace("continuous", "VIOLATION"), out.replace("makespan: 0.200000000", "makespan: 0.200001000")):
        with pytest.raises(checks.CheckError):
            checks.check_simulate_stdout(wrong, workloads.DELAY, makespan)


@pytest.fixture
def trace_export(tmp_path):
    peers, path = peers_file(tmp_path, 7)
    out_path = str(tmp_path / "trace.json")
    stdout = run_cli(["simulate", "--input", path, *FLAGS, "--output", out_path, "--format", "json"])
    with open(out_path, encoding="utf-8") as fp:
        return stdout, out_path, json.load(fp), [p[0] for p in peers]


def test_trace_export_accepted(trace_export):
    stdout, out_path, _, ids = trace_export
    checks.check_trace_export(stdout, out_path, ids, workloads.DELAY)


def duplicate_event(trace):
    trace["events"].append(copy.deepcopy(trace["events"][10]))


def drop_event(trace):
    del trace["events"][10]


def swap_receivers_in_a_step(trace):
    # Same event count and block coverage per step lost: one peer receives twice.
    phase2 = [e for e in trace["events"] if e["phase"] == 2 and e["step"] == 1]
    phase2[0]["receiver"] = phase2[1]["receiver"]


def late_makespan(trace):
    trace["makespan_s"] += 1e-6


@pytest.mark.parametrize("mutate", [duplicate_event, drop_event, swap_receivers_in_a_step, late_makespan])
def test_trace_export_rejects(trace_export, mutate):
    _, _, trace, ids = trace_export
    mutate(trace)
    with pytest.raises(checks.CheckError):
        checks.check_trace(trace, ids, float(workloads.DELAY))


@pytest.fixture
def admit_run(tmp_path):
    peers, path = peers_file(tmp_path, 40, seed=5)
    uploads = workloads.exact_uploads(peers)
    reqs = checks.requirements(uploads, workloads.PACKAGE, workloads.DELAY)
    budget = workloads.half_admitting_budget(uploads)
    stdout = run_cli(["admit", "--input", path, "--budget-bps", budget, *FLAGS])
    return stdout, peers, Fraction(budget), reqs


def test_admit_accepted(admit_run):
    stdout, peers, budget, reqs = admit_run
    assert "admitted 20 of 40" in stdout
    checks.check_admit_stdout(stdout, peers, budget, reqs)


@pytest.mark.parametrize("delta", [1, -1])
def test_admit_rejects_off_by_one_count(admit_run, delta):
    stdout, peers, budget, reqs = admit_run
    wrong = stdout.replace("admitted 20 of 40", f"admitted {20 + delta} of 40")
    with pytest.raises(checks.CheckError):
        checks.check_admit_stdout(wrong, peers, budget, reqs)


def test_admit_rejects_wrong_rejected_id(admit_run):
    stdout, peers, budget, reqs = admit_run
    highest = max(peers, key=lambda p: Fraction(p[1]))[0]
    rejected_line = next(line for line in stdout.splitlines() if line.startswith("rejected: "))
    first = rejected_line[len("rejected: "):].split(", ")[0]
    with pytest.raises(checks.CheckError):
        checks.check_admit_stdout(stdout.replace(first, highest, 1), peers, budget, reqs)


def test_admit_rejects_bandwidth_over_budget(admit_run):
    stdout, peers, budget, reqs = admit_run
    line = next(line for line in stdout.splitlines() if line.startswith("allocated bandwidth: "))
    wrong = stdout.replace(line, f"allocated bandwidth: {float(budget) + 1:.2f} bps (budget {float(budget):.2f} bps)")
    with pytest.raises(checks.CheckError):
        checks.check_admit_stdout(wrong, peers, budget, reqs)


@pytest.fixture
def curve_points(tmp_path):
    seed = 17
    out = tmp_path / "curve.json"
    run_cli(["curve", "--sizes", "80", *FLAGS, "--seed", str(seed), "--format", "json", "--output", str(out)])
    with open(tmp_path / "curve_n80.json", encoding="utf-8") as fp:
        return json.load(fp), workloads.curve_requirements(80, seed)


def test_curve_accepted(curve_points):
    points, reqs = curve_points
    checks.check_curve(points, reqs)


def test_curve_rejects_a_decreasing_point(curve_points):
    points, reqs = curve_points
    i = next(i for i in range(1, len(points)) if points[i - 1]["n"] > 1)
    points[i]["n"] = points[i - 1]["n"] - 1
    with pytest.raises(checks.CheckError, match="decreases"):
        checks.check_curve(points, reqs)


def test_curve_rejects_an_off_by_one_point(curve_points):
    points, reqs = curve_points
    # A point strictly inside the curve whose neighbours leave room for +1.
    i = next(i for i in range(1, len(points) - 1) if points[i + 1]["n"] > points[i]["n"])
    points[i]["n"] += 1
    with pytest.raises(checks.CheckError, match="exact answer"):
        checks.check_curve(points, reqs)


def test_curve_pool_is_redrawn_exactly():
    from acide import experiments

    for size in workloads.CURVE_SIZES:
        pool = experiments.generate_peers(
            size, experiments.DEFAULT_UPLOAD_RANGES[size], experiments.DEFAULT_DOWNLOAD_RANGES[size], 99
        )
        assert [p.upload for p in pool] == sorted(checks.draw_uploads(size, 99))


def test_plan_check(tmp_path):
    peers, _ = peers_file(tmp_path, 9)
    plan = core.min_bandwidth(
        [core.PeerProfile(i, float(u), float(d)) for i, u, d in peers], core.StreamParams(2000.0, 0.2)
    )
    checks.check_plan(plan, 2000.0, 0.2)
    bent = core.AllocationPlan(
        plan.peers, (plan.block_sizes[0] * (1 + 1e-6),) + plan.block_sizes[1:], plan.peer_bandwidths,
        plan.total_bandwidth, plan.phase1_time, plan.phase2_time,
    )
    with pytest.raises(checks.CheckError):
        checks.check_plan(bent, 2000.0, 0.2)
