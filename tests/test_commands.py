"""Cross-command properties: solve, admit and simulate agree with each other on one peer file.

Each property runs acide.cli.main in process on drawn peer files of 1 to 8
peers, with bandwidths from 1e-2 to 1e9 bps. Downloads are u*U[1, 3], so
that many pools break the chain rule (max u <= min d) and many stream rates,
from 0.3 to 2 times the mean upload, bind the rate rule (bw_i <= d_i); a few
files repeat an id or give a download below its upload. Every run also checks
what every command keeps: a command that fails prints nothing on stdout,
writes no file and prints only error lines, and every plan a command writes
keeps the cluster rules (oracles.assert_plan_keeps_the_rules).
"""

from __future__ import annotations

import csv
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acide.admission import AdmissionBudget, join_cluster
from acide.cli import main
from acide.core import DEFAULT_DELAY_BOUND, ClusterRefused, PeerProfile, StreamParams, min_bandwidth, validate_cluster
from acide.experiments import (
    DEFAULT_DOWNLOAD_RANGES,
    DEFAULT_UPLOAD_RANGES,
    generate_peers,
    pool_ranges,
    pool_seed,
)
from acide.output import plan_document
from oracles import assert_plan_keeps_the_rules

COMMANDS = settings(max_examples=20, deadline=None, derandomize=True, database=None)
ERROR_LINE = re.compile(r"error\[[a-z:-]+\]: \S")
# The --format json fields that hold a bandwidth or a size in bits; every other number is a time or a count.
SCALED = {"u_bps", "d_bps", "block_bits", "peer_bandwidths_bps", "total_bandwidth_bps", "rate_bps"}


class Case(NamedTuple):
    peers: list[tuple[str, float, float]]
    rate: float
    budget: float

    def stream(self) -> list[str]:
        return ["--livestream-bps", repr(self.rate)]

    def commands(self) -> dict[str, list[str]]:
        """Each command's arguments after --input."""
        return {"solve": self.stream(), "admit": ["--budget-bps", repr(self.budget), *self.stream()],
                "simulate": self.stream()}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 8))
    magnitude = 10.0 ** draw(st.integers(-2, 8))
    uploads = [magnitude * draw(st.floats(1.0, 10.0)) for _ in range(n)]
    downloads = [u * draw(st.floats(1.0, 3.0)) for u in uploads]
    ids = [f"p{i}" for i in range(n)]
    if draw(st.sampled_from([False] * 9 + [True])):  # a per-peer rule broken
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            ids[i] = ids[0]
        else:
            downloads[i] = uploads[i] / 2
    # Often just above the mean upload, where phase 1 is short enough for the rate rule to bind.
    rate = sum(uploads) / n * draw(st.floats(0.3, 2.0) | st.floats(1.0, 1.2))
    return Case(list(zip(ids, uploads, downloads)), rate, rate * draw(st.floats(0.9, 2.0 * n)))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("commands")


def write_peers(path: Path, peers) -> str:
    """A peer CSV whose floats are spelled by repr, so that they read back to the same bits."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp).writerows((ident, repr(u), repr(d)) for ident, u, d in peers)
    return str(path)


def run(argv: list[str], output: Path | None = None, rate: float | None = None) -> tuple[int, str, str, bytes | None]:
    """(exit code, stdout, stderr, --output bytes or None) of one command run in process.

    Given the stream `rate`, the plan of a JSON document the command writes is
    checked against the cluster rules.
    """
    if output is not None:
        output.unlink(missing_ok=True)
        argv = [*argv, "--output", str(output), "--format", output.suffix[1:]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = output.read_bytes() if output is not None and output.exists() else None
    if code != 0:
        assert (out.getvalue(), written) == ("", None)
        assert all(ERROR_LINE.match(line) for line in err.getvalue().splitlines())
    elif rate is not None and written is not None and output.suffix == ".json":
        document = json.loads(written)
        plan = document.get("plan", document)
        assert_plan_keeps_the_rules(plan, rate * DEFAULT_DELAY_BOUND, DEFAULT_DELAY_BOUND)
    return code, out.getvalue(), err.getvalue(), written


@COMMANDS
@given(case=cases(), order=st.permutations(range(8)), fmt=st.sampled_from(["csv", "json"]))
def test_rows_in_any_order_give_the_same_bytes(scratch, case, order, fmt):
    permuted = [case.peers[i] for i in order if i < len(case.peers)]
    for command, flags in case.commands().items():
        results = [
            run([command, "--input", write_peers(scratch / "peers.csv", peers), *flags], scratch / f"out.{fmt}",
                case.rate)
            for peers in (case.peers, permuted)
        ]
        assert results[1] == results[0]


@COMMANDS
@given(case=cases())
def test_solve_plans_what_admit_admits_to_the_same_bytes(scratch, case):
    path = write_peers(scratch / "candidates.csv", case.peers)
    argv = ["admit", "--input", path, *case.commands()["admit"]]
    code, out, _, written = run(argv, scratch / "admit.json", case.rate)
    if code != 0:
        return
    outcome = json.loads(written)
    # The rejected line reads back through csv.reader as the rejected ids.
    rejected = [next(csv.reader([line.removeprefix("rejected: ")], skipinitialspace=True))
                for line in out.splitlines() if line.startswith("rejected: ")]
    assert rejected == ([outcome["rejected_ids"]] if outcome["rejected_ids"] else [])
    admitted = [peer for peer in case.peers if peer[0] in outcome["admitted_ids"]]
    solve = ["solve", "--input", write_peers(scratch / "admitted.csv", admitted), *case.stream()]
    code, _, _, solved = run(solve, scratch / "solve.json", case.rate)
    assert code == 0
    assert json.loads(solved) == outcome["plan"]
    assert run(solve, scratch / "solve.csv")[3] == run(argv, scratch / "admit.csv")[3]


@COMMANDS
@given(case=cases())
def test_simulate_calls_every_plan_solve_accepts_continuous(scratch, case):
    path = write_peers(scratch / "peers.csv", case.peers)
    solved = run(["solve", "--input", path, *case.stream()], scratch / "plan.json", case.rate)
    simulated = run(["simulate", "--input", path, *case.stream()], scratch / "trace.json", case.rate)
    assert simulated[0] == solved[0]
    if solved[0] == 0:
        assert simulated[1].startswith("playback: continuous\n")
    else:
        assert simulated[2] == solved[2]


def scaled(document, factor: float, key: str | None = None):
    """A JSON document with every bandwidth and size in bits multiplied by factor."""
    if isinstance(document, dict):
        return {name: scaled(value, factor, name) for name, value in document.items()}
    if isinstance(document, list):
        return [scaled(value, factor, key) for value in document]
    return document * factor if key in SCALED else document


@COMMANDS
@given(case=cases(), k=st.integers(-20, 20))
def test_a_power_of_two_scales_every_bandwidth_and_block_exactly(scratch, case, k):
    factor = 2.0**k
    times = Case([(i, u * factor, d * factor) for i, u, d in case.peers], case.rate * factor, case.budget * factor)
    for command in case.commands():
        results = [
            run([command, "--input", write_peers(scratch / "peers.csv", c.peers), *c.commands()[command]],
                scratch / "out.json", c.rate)
            for c in (case, times)
        ]
        assert results[1][0] == results[0][0]
        if results[0][0] == 0:
            assert json.loads(results[1][3]) == scaled(json.loads(results[0][3]), factor)


def expected_refusal(command: str, case: Case) -> list[str]:
    """The error lines of the cluster rules the library refuses the case with; empty for none."""
    peers = [PeerProfile(*peer) for peer in case.peers]
    stream = StreamParams(case.rate * DEFAULT_DELAY_BOUND, DEFAULT_DELAY_BOUND)
    if command != "admit":
        violations = validate_cluster(peers, stream).violations
    else:
        try:
            join_cluster(AdmissionBudget(case.budget, peers, stream))
            violations = ()
        except ClusterRefused as refused:
            violations = refused.violations
        except ValueError:  # a budget below the stream rate, or a plan that does not divide the package
            violations = ()
    return [f"error[validation:{v.code}]: {v.message}" for v in violations]


@COMMANDS
@given(case=cases())
def test_a_refused_command_prints_one_error_line_per_violation(scratch, case):
    path = write_peers(scratch / "peers.csv", case.peers)
    for command, flags in case.commands().items():
        code, _, err, _ = run([command, "--input", path, *flags])
        if want := expected_refusal(command, case):
            assert (code, err.splitlines()) == (2, want)
        elif code != 0:
            assert len(err.splitlines()) == 1


ids = st.text(alphabet='ab ,"', min_size=1, max_size=6).map(str.strip).filter(bool)


@COMMANDS
@given(names=st.lists(ids, min_size=2, max_size=6, unique=True))
def test_the_rejected_line_reads_back_through_csv_reader(scratch, names):
    # Uploads rise down the list, so a budget of the stream rate admits only the last peer.
    peers = [(name, 10000.0 + i, 1e9) for i, name in enumerate(names)]
    argv = ["admit", "--input", write_peers(scratch / "named.csv", peers), "--budget-bps", "10000",
            "--livestream-bps", "10000"]
    code, out, _, _ = run(argv)
    assert code == 0
    line = out.splitlines()[-1]
    assert next(csv.reader([line.removeprefix("rejected: ")], skipinitialspace=True)) == names[:-1]


def test_sweep_and_profile_write_only_plans_that_keep_the_rules(scratch):
    # Each sweep record admits the top uploaders of its size's pool; planned here, they must cost
    # the record's bandwidth and keep the rules. Each profile table is its pool's plan.
    assert run(["sweep", "--seed", "42"], scratch / "sweep.json")[0] == 0
    records = json.loads((scratch / "sweep.json").read_text(encoding="utf-8"))
    for record in records:
        size, n = record["N"], record["n_admitted"]
        if n == 0:
            continue
        pool = generate_peers(size, *pool_ranges(size, DEFAULT_UPLOAD_RANGES, DEFAULT_DOWNLOAD_RANGES),
                              pool_seed(42, size))
        stream = StreamParams(record["livestream_bps"] * DEFAULT_DELAY_BOUND, DEFAULT_DELAY_BOUND)
        plan = min_bandwidth(pool[size - n:], stream)
        assert plan.total_bandwidth == record["bw_bps"]
        assert_plan_keeps_the_rules(plan_document(plan), stream.package_size, stream.delay_bound)
    sizes = sorted(DEFAULT_UPLOAD_RANGES)
    argv = ["profile", "--sizes", *map(str, sizes), "--livestream-bps", "10000"]
    assert run(argv, scratch / "profile.json")[0] == 0
    stream = StreamParams(10000.0 * DEFAULT_DELAY_BOUND, DEFAULT_DELAY_BOUND)
    for size in sizes:
        rows = json.loads((scratch / f"profile_n{size}.json").read_text(encoding="utf-8"))
        pool = generate_peers(size, *pool_ranges(size, DEFAULT_UPLOAD_RANGES, DEFAULT_DOWNLOAD_RANGES),
                              pool_seed(42, size))
        plan = plan_document(min_bandwidth(pool, stream))
        assert [(row["u_bps"], row["s_bits"], row["bw_bps"]) for row in rows] == list(
            zip([p["u_bps"] for p in plan["peers"]], plan["block_bits"], plan["peer_bandwidths_bps"])
        )
        assert_plan_keeps_the_rules(plan, stream.package_size, stream.delay_bound)
