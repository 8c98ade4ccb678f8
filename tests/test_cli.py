from __future__ import annotations

import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from acide import cli
from acide.cli import main
from acide.experiments import DEFAULT_DOWNLOAD_RANGES, DEFAULT_UPLOAD_RANGES, generate_peers

PEERS_CSV = "id,u_bps,d_bps\na,10000,20000\nb,15000,30000\nc,20000,40000\n"


def csv_rows(path: Path, newline: str | None = None) -> list[list[str]]:
    """Every row of the CSV file at `path`, read through a handle that is closed again."""
    with path.open(newline=newline) as fp:
        return list(csv.reader(fp))


@pytest.fixture
def peers_csv(tmp_path):
    path = tmp_path / "peers.csv"
    path.write_text(PEERS_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def peers_json(tmp_path):
    path = tmp_path / "peers.json"
    data = {
        "peers": [
            {"id": "a", "u_bps": 10000, "d_bps": 20000},
            {"id": "b", "u_bps": 15000, "d_bps": 30000},
            {"id": "c", "u_bps": 20000, "d_bps": 40000},
        ],
        "stream": {"package_bits": 2000, "delay_ms": 200},
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestSolve:
    def test_three_peer_example(self, peers_csv, capsys, tmp_path):
        out = tmp_path / "plan.json"
        code = main(
            [
                "solve",
                "--input", peers_csv,
                "--package-bits", "2000",
                "--delay-ms", "200",
                "--output", str(out),
                "--format", "json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "18000.00" in captured.out
        plan = json.loads(out.read_text(encoding="utf-8"))
        assert plan["total_bandwidth_bps"] == pytest.approx(18000.0, rel=1e-9)
        assert [p["id"] for p in plan["peers"]] == ["a", "b", "c"]

    def test_stream_from_json_file(self, peers_json, capsys):
        assert main(["solve", "--input", peers_json]) == 0
        assert "18000.00" in capsys.readouterr().out

    def test_flags_override_file_stream(self, peers_json, capsys):
        # Twice the package in the same window needs more bandwidth.
        assert main(["solve", "--input", peers_json, "--package-bits", "3000"]) == 0
        out = capsys.readouterr().out
        assert "18000.00" not in out

    def test_csv_plan_output(self, peers_csv, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        code = main(
            ["solve", "--input", peers_csv, "--livestream-bps", "10000", "--output", str(out)]
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["id", "u_bps", "d_bps", "s_bits", "bw_bps"]
        assert len(rows) == 4

    def test_headerless_csv_accepted(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("a,10000,20000\nb,15000,30000\nc,20000,40000\n", encoding="utf-8")
        assert main(["solve", "--input", str(path), "--livestream-bps", "10000"]) == 0
        assert "18000.00" in capsys.readouterr().out

    def test_missing_stream_is_validation_error(self, peers_csv, capsys):
        assert main(["solve", "--input", peers_csv]) == 2
        assert "error[validation]" in capsys.readouterr().err

    def test_assumption_violation_named(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,u_bps,d_bps\nx,30000,20000\n", encoding="utf-8")
        code = main(["solve", "--input", str(path), "--livestream-bps", "10000"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error[validation:upload-over-download]" in err

    def test_infeasible_cluster_reported(self, peers_csv, capsys):
        code = main(["solve", "--input", peers_csv, "--livestream-bps", "20000"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error[validation:stream-over-mean-upload]" in err

    def test_parse_error_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("id,u_bps,d_bps\na,notanumber,20000\n", encoding="utf-8")
        code = main(["solve", "--input", str(path), "--livestream-bps", "10000"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error[parse]" in err
        assert "broken.csv:2" in err

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "nope.csv"), "--livestream-bps", "10000"])
        assert code == 2
        assert "error[parse]" in capsys.readouterr().err

    def test_plan_csv_quotes_ids(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        peers = [
            {"id": "a,b", "u_bps": 10000, "d_bps": 20000},
            {"id": 'c"q', "u_bps": 15000, "d_bps": 30000},
            {"id": "d", "u_bps": 20000, "d_bps": 40000},
        ]
        path.write_text(json.dumps(peers), encoding="utf-8")
        out = tmp_path / "plan.csv"
        code = main(["solve", "--input", str(path), "--livestream-bps", "10000", "--output", str(out)])
        assert code == 0
        rows = csv_rows(out, newline="")
        assert [len(r) for r in rows] == [5, 5, 5, 5]
        assert [r[0] for r in rows[1:]] == ["a,b", 'c"q', "d"]
        assert "a,b,10000.00," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name,text",
        [
            ("empty.csv", "id,u_bps,d_bps\na,10000,20000\n ,15000,30000\n"),
            ("null.json", '[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": null, "u_bps": 15000, "d_bps": 30000}]'),
            ("empty.json", '[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": "", "u_bps": 15000, "d_bps": 30000}]'),
            ("list.json", '[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": [1, 2], "u_bps": 15000, "d_bps": 30000}]'),
            ("true.json", '[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": true, "u_bps": 15000, "d_bps": 30000}]'),
            ("number.json", '[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": 7, "u_bps": 15000, "d_bps": 30000}]'),
        ],
        ids=["csv-empty", "json-null", "json-empty", "json-list", "json-true", "json-number"],
    )
    def test_missing_peer_id_is_parse_error(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code = main(["solve", "--input", str(path), "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[parse]" in captured.err
        assert "peer id" in captured.err
        assert str(path) in captured.err
        assert captured.out == ""

    def test_json_id_that_is_not_a_string_names_the_file_and_peer(self, tmp_path, capsys):
        path = tmp_path / "ids.json"
        path.write_text('[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": [1, 2], "u_bps": 15000, "d_bps": 30000}]',
                        encoding="utf-8")
        code = main(["solve", "--input", str(path), "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error[parse]: {path}: peer #2: peer id must be a string, got [1, 2]\n"
        assert captured.out == ""

    def test_padded_ids_solve_alike_from_csv_and_json(self, tmp_path, capsys):
        rows = [(" a", 10000, 20000), ("b ", 15000, 30000), (" c ", 20000, 40000)]
        csv_path, json_path = tmp_path / "padded.csv", tmp_path / "padded.json"
        csv_path.write_text("id,u_bps,d_bps\n" + "".join(f"{i},{u},{d}\n" for i, u, d in rows), encoding="utf-8")
        json_path.write_text(json.dumps([{"id": i, "u_bps": u, "d_bps": d} for i, u, d in rows]), encoding="utf-8")
        assert main(["solve", "--input", str(csv_path), "--livestream-bps", "10000"]) == 0
        from_csv = capsys.readouterr()
        assert main(["solve", "--input", str(json_path), "--livestream-bps", "10000"]) == 0
        assert capsys.readouterr() == from_csv
        assert [line.split(",")[0] for line in from_csv.out.splitlines()[4:]] == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "stream",
        [[2000], "x", {"delay_ms": [1]}, {"package_bits": {"a": 1}}],
        ids=["list", "string", "list-value", "object-value"],
    )
    def test_malformed_stream_section_is_parse_error(self, tmp_path, capsys, stream):
        path = tmp_path / "stream.json"
        peers = [{"id": "a", "u_bps": 20000, "d_bps": 40000}, {"id": "b", "u_bps": 20000, "d_bps": 40000}]
        path.write_text(json.dumps({"peers": peers, "stream": stream}), encoding="utf-8")
        code = main(["solve", "--input", str(path), "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[parse]" in captured.err
        assert "stream.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "peer",
        [
            {"id": "b", "u_bps": True, "d_bps": 30000},
            {"id": "b", "u_bps": 15000, "d_bps": False},
        ],
        ids=["true-upload", "false-download"],
    )
    def test_boolean_bandwidth_is_parse_error(self, tmp_path, capsys, peer):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps([{"id": "a", "u_bps": 10000, "d_bps": 20000}, peer]), encoding="utf-8")
        code = main(["solve", "--input", str(path), "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[parse]" in captured.err
        assert "bool.json: peer #2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "stream",
        [{"package_bits": True}, {"package_bits": 2000, "delay_ms": True}, {"livestream_bps": False}],
        ids=["true-package", "true-delay", "false-rate"],
    )
    def test_boolean_stream_value_is_parse_error(self, tmp_path, capsys, stream):
        path = tmp_path / "stream.json"
        peers = [{"id": "a", "u_bps": 20000, "d_bps": 40000}, {"id": "b", "u_bps": 20000, "d_bps": 40000}]
        path.write_text(json.dumps({"peers": peers, "stream": stream}), encoding="utf-8")
        code = main(["solve", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[parse]" in captured.err
        assert "stream.json" in captured.err
        assert captured.out == ""

    def test_nan_delay_is_validation_error(self, peers_csv, capsys):
        code = main(["solve", "--input", peers_csv, "--livestream-bps", "10000", "--delay-ms", "nan"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[validation]" in captured.err
        assert captured.out == ""


class TestAdmit:
    def test_budget_forces_unicast(self, peers_csv, capsys):
        code = main(
            [
                "admit",
                "--input", peers_csv,
                "--budget-bps", "10000",
                "--livestream-bps", "10000",
                "--delay-ms", "200",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "admitted 1 of 3" in out
        assert "efficiency: 100.00%" in out

    def test_mid_budget(self, peers_csv, capsys, tmp_path):
        out_path = tmp_path / "outcome.json"
        code = main(
            [
                "admit",
                "--input", peers_csv,
                "--budget-bps", "15000",
                "--livestream-bps", "10000",
                "--output", str(out_path),
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "admitted 2 of 3" in out
        assert "rejected: a" in out
        outcome = json.loads(out_path.read_text(encoding="utf-8"))
        assert outcome["admitted_ids"] == ["b", "c"]
        assert outcome["efficiency_pct"] == pytest.approx(93.3333333, rel=1e-6)

    def test_budget_below_stream_exits_3(self, peers_csv, capsys):
        code = main(
            ["admit", "--input", peers_csv, "--budget-bps", "9000", "--livestream-bps", "10000"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "error[insufficient-budget]" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("inf.csv", "id,u_bps,d_bps\na,10000,20000\nb,15000,30000\nx,inf,inf\n"),
            ("inf.json", '[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": "x", "u_bps": Infinity, "d_bps": Infinity}]'),
        ],
        ids=["csv", "json"],
    )
    def test_infinite_upload_is_parse_error(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code = main(
            ["admit", "--input", str(path), "--budget-bps", "10000", "--livestream-bps", "10000"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error[parse]" in captured.err
        assert captured.out == ""


    def test_duplicate_ids_are_validation_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("id,u_bps,d_bps\na,10000,20000\na,15000,30000\nc,20000,40000\n", encoding="utf-8")
        code = main(["admit", "--input", str(path), "--budget-bps", "15000", "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error[validation:duplicate-id]")
        assert captured.out == ""

    def test_upload_over_download_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,u_bps,d_bps\na,10000,20000\nx,30000,20000\n", encoding="utf-8")
        code = main(["admit", "--input", str(path), "--budget-bps", "15000", "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error[validation:upload-over-download]: upload exceeds download for peer(s): x\n"
        assert captured.out == ""

    def test_duplicate_id_with_a_zero_budget_names_only_the_id(self, tmp_path, capsys):
        # The candidates are checked before the budget.
        path = tmp_path / "dup.csv"
        path.write_text("id,u_bps,d_bps\na,10000,20000\na,15000,30000\n", encoding="utf-8")
        code = main(["admit", "--input", str(path), "--budget-bps", "0", "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error[validation:duplicate-id]: peer id(s) given more than once: a\n"
        assert captured.out == ""

    def test_pool_level_conditions_left_to_admission(self, peers_csv, capsys):
        # The pool's mean upload is below the stream rate, which solve rejects;
        # admission still finds the one peer that fits on its own.
        code = main(["admit", "--input", peers_csv, "--budget-bps", "20000", "--livestream-bps", "20000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "admitted 1 of 3" in captured.out
        assert captured.err == ""


class TestSimulate:
    def test_trace_written_and_continuous(self, peers_csv, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--input", peers_csv, "--livestream-bps", "10000", "--output", str(out)]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "playback: continuous" in stdout
        rows = csv_rows(out)
        assert rows[0] == ["phase", "step", "sender", "receiver", "block", "start_s", "end_s", "rate_bps"]
        assert len(rows) == 1 + 3 + 6

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_output_builds_each_event_once(self, tmp_path, event_reads, fmt):
        n = 40
        pool = generate_peers(n, DEFAULT_UPLOAD_RANGES[n], DEFAULT_DOWNLOAD_RANGES[n], seed=7)
        path = tmp_path / "pool.csv"
        path.write_text("".join(f"{p.id},{p.upload!r},{p.download!r}\n" for p in pool), encoding="utf-8")
        out = str(tmp_path / f"trace.{fmt}")
        argv = ["simulate", "--input", str(path), "--livestream-bps", "10000", "--output", out, "--format", fmt]
        assert main(argv) == 0
        assert event_reads == [n * n]

    def test_json_trace(self, peers_csv, tmp_path):
        out = tmp_path / "trace.json"
        code = main(
            [
                "simulate",
                "--input", peers_csv,
                "--livestream-bps", "10000",
                "--output", str(out),
                "--format", "json",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["makespan_s"] == pytest.approx(0.2, rel=1e-9)

    def test_nan_upload_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("id,u_bps,d_bps\na,nan,20000\nb,15000,30000\nc,20000,40000\n", encoding="utf-8")
        code = main(["simulate", "--input", str(path), "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[parse]" in captured.err
        assert "nan.csv:2" in captured.err
        assert captured.out == ""

    def test_duplicate_ids_are_validation_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("id,u_bps,d_bps\na,10000,20000\na,15000,30000\nc,20000,40000\n", encoding="utf-8")
        code = main(["simulate", "--input", str(path), "--livestream-bps", "10000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[validation:duplicate-id]" in captured.err
        assert captured.out == ""


class TestSweep:
    def test_writes_records(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(["sweep", "--sizes", "5", "10", "--seed", "7", "--output", str(out)])
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["N", "livestream_bps", "BW_bps", "n_admitted", "bw_bps", "efficiency_pct"]
        assert len(rows) == 1 + 2 * 4 * 10

    def test_byte_stable_across_runs(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["sweep", "--sizes", "5", "--seed", "7", "--output", str(out)]) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_seed_env_var(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "env.csv", tmp_path / "flag.csv"
        monkeypatch.setenv("ACIDE_SEED", "99")
        assert main(["sweep", "--sizes", "5", "--output", str(out1)]) == 0
        monkeypatch.delenv("ACIDE_SEED")
        assert main(["sweep", "--sizes", "5", "--seed", "99", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_scenario_file(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({"cluster_sizes": [5], "budgets_bps": [10000, 20000], "seed": 4}),
            encoding="utf-8",
        )
        out = tmp_path / "records.csv"
        assert main(["sweep", "--input", str(scenario), "--output", str(out)]) == 0
        rows = csv_rows(out)
        assert len(rows) == 1 + 1 * 4 * 2

    def test_malformed_scenario_is_parse_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{not json", encoding="utf-8")
        code = main(["sweep", "--input", str(scenario), "--output", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error[parse]" in err
        assert "scenario.json:1" in err

    @pytest.mark.parametrize(
        "scenario,field",
        [
            ({"upload_ranges": {"5": [10000, "Infinity"]}, "download_ranges": {"5": [20000, "Infinity"]}}, "upload_ranges"),
            ({"download_ranges": {"5": ["-Infinity", 30000]}}, "download_ranges"),
            ({"delay_bound_s": "NaN"}, "delay_bound"),
            ({"livestream_bandwidths_bps": [10000, "Infinity"]}, "livestream_bandwidths"),
            ({"budgets_bps": ["NaN", 20000]}, "budgets"),
        ],
        ids=["infinite-ranges", "negative-range", "nan-delay", "infinite-rate", "nan-budget"],
    )
    def test_non_finite_scenario_is_validation_error(self, tmp_path, capsys, scenario, field):
        # JSON literals Infinity/NaN, which json.dumps cannot write from strings.
        text = json.dumps({"cluster_sizes": [5], **scenario})
        for literal in ("-Infinity", "Infinity", "NaN"):
            text = text.replace(f'"{literal}"', literal)
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        code = main(["sweep", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error[validation]")
        assert field in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "scenario",
        [
            {"seed": True},
            {"cluster_sizes": [True]},
            {"upload_ranges": {"5": [10000, True]}},
            {"delay_bound_s": False},
            {"livestream_bandwidths_bps": [True]},
            {"budgets_bps": [20000, True]},
        ],
        ids=["seed", "size", "range", "delay", "rate", "budget"],
    )
    def test_boolean_scenario_value_is_malformed(self, tmp_path, capsys, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"cluster_sizes": [5], **scenario}), encoding="utf-8")
        code = main(["sweep", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error[validation]")
        assert "malformed scenario" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "scenario",
        [
            {"cluster_sizes": [5.7]},
            {"cluster_sizes": [5], "seed": 1.9},
            {"cluster_sizes": [5], "upload_ranges": {"5.7": [10000, 20000]}},
            {"cluster_sizes": [5], "download_ranges": {"5.7": [20000, 30000]}},
        ],
        ids=["size", "seed", "upload-range-key", "download-range-key"],
    )
    def test_fractional_integer_scenario_value_is_malformed(self, tmp_path, capsys, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code = main(["sweep", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error[validation]")
        assert "malformed scenario" in captured.err
        assert "5.7" in captured.err or "1.9" in captured.err
        assert captured.out == ""

    def test_whole_float_scenario_values_are_accepted(self, tmp_path, capsys):
        whole = tmp_path / "whole.json"
        whole.write_text(json.dumps({"cluster_sizes": [5.0], "seed": 1.0}), encoding="utf-8")
        assert main(["sweep", "--input", str(whole)]) == 0
        from_floats = capsys.readouterr().out
        assert main(["sweep", "--sizes", "5", "--seed", "1"]) == 0
        assert from_floats == capsys.readouterr().out

    def test_stdout_when_no_output(self, capsys):
        assert main(["sweep", "--sizes", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("N,livestream_bps,BW_bps")

    def test_json_format(self, tmp_path):
        out = tmp_path / "records.json"
        assert main(["sweep", "--sizes", "5", "--seed", "1", "--output", str(out), "--format", "json"]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert len(data) == 40
        assert {"N", "livestream_bps", "BW_bps", "n_admitted", "bw_bps", "efficiency_pct"} == set(data[0])


class TestCurveAndProfile:
    def test_curve_files(self, tmp_path, capsys):
        # A size given twice is taken once, where it first appears.
        for run, sizes in enumerate((["10", "5"], ["10", "5", "5"])):
            directory = tmp_path / str(run)
            directory.mkdir()
            code = main(
                ["curve", "--sizes", *sizes, "--livestream-bps", "10000", "--seed", "3",
                 "--output", str(directory / "curve.csv")]
            )
            assert code == 0
            # One file per size, written and reported in the order the sizes were given.
            assert capsys.readouterr().out == (
                f"wrote {directory / 'curve_n10.csv'}\nwrote {directory / 'curve_n5.csv'}\n"
            )
            for size in (5, 10):
                rows = csv_rows(directory / f"curve_n{size}.csv")
                assert rows[0] == ["BW_bps", "n"]
                assert len(rows) == 1 + size
                assert rows[-1][1] == str(size)

    def test_profile_files(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(
            ["profile", "--sizes", "120", "5", "--livestream-bps", "10000", "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        # Unlike curve, profile writes and reports its sizes in ascending order.
        assert capsys.readouterr().out == (
            f"wrote {tmp_path / 'profile_n5.csv'}\nwrote {tmp_path / 'profile_n120.csv'}\n"
        )
        rows = csv_rows(tmp_path / "profile_n5.csv")
        assert rows[0] == ["peer_index", "u_bps", "s_bits", "bw_bps"]
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]

    @pytest.mark.parametrize("command", ["curve", "profile"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_without_a_suffix_takes_the_format_as_one(self, tmp_path, capsys, command, fmt):
        # A suffix given with --output is kept as it is, whatever the format.
        for stem, want in (("out", f"out_n5.{fmt}"), ("out.txt", "out_n5.txt")):
            argv = [command, "--sizes", "5", "--livestream-bps", "10000", "--seed", "3", "--format", fmt]
            assert main([*argv, "--output", str(tmp_path / stem)]) == 0
            assert capsys.readouterr().out == f"wrote {tmp_path / want}\n"
            text = (tmp_path / want).read_text(encoding="utf-8")
            if fmt == "json":
                assert isinstance(json.loads(text), list)
            else:
                assert text.splitlines()[0] in ("BW_bps,n", "peer_index,u_bps,s_bits,bw_bps")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([f"out_n5.{fmt}", "out_n5.txt"])

    def test_unknown_size_is_validation_error(self, tmp_path, capsys):
        code = main(
            ["profile", "--sizes", "7", "--livestream-bps", "10000", "--output", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert "error[validation]" in capsys.readouterr().err


# SHA-256 of the sweep and curve outputs at seed 42, and of every --output of
# solve, admit, simulate and profile on a seeded 40-peer pool. A refactor of
# the solver, of admission or of the output layer must leave these bytes
# unchanged; two runs of the same code agreeing (acceptance criterion 7)
# cannot show that.
PINNED_DIGESTS = {
    "sweep.csv": "d4ac228ca35d3c92e9ad18f5b10b03a97e4da9a2cc69753359fe53011af9738d",
    "sweep.json": "2083f9206bb69d240326beb46325ae5a248d427a6a0f9cbadbcd88c34ad97949",
    "curve_n5.csv": "2f8d006d48bae4cf328ca6f168ac81c0439dff7a9084abb16dbaf2eb812ca99b",
    "curve_n20.csv": "af1354f1c859537ba141b185cc22205c485061d8e9a8c242bac87000d37bc0d1",
    "curve_n60.csv": "ed718d81373492dccf7d214820283c613d7114b42116b44bae5fa01aa25a5647",
    "curve_n120.csv": "445ab7a99f87ce97359e37e257c1aca5fc34225458eb82e8b13fc3fc4634f4d5",
    "curve_n5.json": "0077bf12cbe7a038be6e75ed8c5b61653e04d0bd1818971b5142b6285cb7c708",
    "curve_n20.json": "66ae7a4c60d5b4cff137e0b61f47210e3c848c0ef0f06dfc2d7d9efed94a1985",
    "curve_n60.json": "93fde8bc5fcad1dfad539ca6e923e8ff850c14ad82db98326de9107af49a91ea",
    "curve_n120.json": "d98f4b0151d54d9569845e93f6eb7f863b3d6c362e600975fdc2c1c029d92d19",
    "sweep-stdout.csv": "d4ac228ca35d3c92e9ad18f5b10b03a97e4da9a2cc69753359fe53011af9738d",
    "solve.csv": "35c2eb1eb09d648bed27dfe5d7c6d635b5cf5a037e2bb93897310e22d38aac27",
    "solve.json": "283dc69684f44a4f841efd3abce92dcbe955a7f096f890197b7cf83c87bbee06",
    "admit.csv": "5900559b44403ddcbe5a87d617ff761d0d638e4bc15566d8676a54a13e3dc47a",
    "admit.json": "73c5241b5a8ffa5d77736f23937267b679eef84875f64d30e1989009d9266833",
    "simulate.csv": "39fa9fab186121f08069dab91e7372ebb8635bf8da2c5f179e1067887998988a",
    "simulate.json": "5733918b0db4819c5aeb97dd7c77c2eb18226086fce0ba81df0bef544e771f25",
    "profile_n5.csv": "9b23427d169325d9bb9349a4948d4e810c1178b35f0d2fbf225f422d5c099b98",
    "profile_n120.csv": "2523aa72c5f41d9e065497bcfb6002d84c4912c5304934de5bf86657b70f8df2",
    "profile_n5.json": "d02c8b1ab4aadf3db99bd88c7602d092173e3bbe129881ebb7d5efac4d67af41",
    "profile_n120.json": "bd2f33658fc702f0d02de33e293a9691d853644f8c5306c161c6bcce9d4d068a",
}


def _assert_pinned(directory, names):
    for name in names:
        assert hashlib.sha256((directory / name).read_bytes()).hexdigest() == PINNED_DIGESTS[name], name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_and_curve_outputs_match_pinned_digests(tmp_path, fmt):
    sweep = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--seed", "42", "--format", fmt, "--output", str(sweep)]) == 0
    curve_args = ["--sizes", "5", "20", "60", "120", "--livestream-bps", "10000", "--seed", "42"]
    assert main(["curve", *curve_args, "--format", fmt, "--output", str(tmp_path / f"curve.{fmt}")]) == 0
    _assert_pinned(tmp_path, [f"sweep.{fmt}"] + [f"curve_n{n}.{fmt}" for n in (5, 20, 60, 120)])


def test_sweep_stdout_matches_pinned_digest(tmp_path, capsys):
    assert main(["sweep", "--seed", "42"]) == 0
    (tmp_path / "sweep-stdout.csv").write_bytes(capsys.readouterr().out.encode("utf-8"))
    _assert_pinned(tmp_path, ["sweep-stdout.csv"])


@pytest.fixture
def pool_csv(tmp_path):
    pool = generate_peers(40, DEFAULT_UPLOAD_RANGES[40], DEFAULT_DOWNLOAD_RANGES[40], seed=42)
    path = tmp_path / "pool.csv"
    rows = "".join(f"{p.id},{p.upload!r},{p.download!r}\n" for p in pool)
    path.write_text("id,u_bps,d_bps\n" + rows, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pool_outputs_match_pinned_digests(tmp_path, pool_csv, fmt):
    rate = ["--livestream-bps", "10000"]

    def out(name):
        return ["--format", fmt, "--output", str(tmp_path / f"{name}.{fmt}")]

    assert main(["solve", "--input", pool_csv, *rate, *out("solve")]) == 0
    assert main(["admit", "--input", pool_csv, "--budget-bps", "13000", *rate, *out("admit")]) == 0
    assert main(["simulate", "--input", pool_csv, *rate, *out("simulate")]) == 0
    assert main(["profile", "--sizes", "5", "120", *rate, "--seed", "42", *out("profile")]) == 0
    names = ["solve", "admit", "simulate", "profile_n5", "profile_n120"]
    _assert_pinned(tmp_path, [f"{name}.{fmt}" for name in names])


@pytest.mark.parametrize(
    "package,delay_ms,stream",
    [
        ("1e-300", "1e300", "1e-300 bits / 1e+297 s must be positive and finite, got 0.0 bps"),
        ("1e308", "1e-300", "1e+308 bits / 1.0000000000000001e-303 s must be positive and finite, got inf bps"),
    ],
    ids=["underflow", "overflow"],
)
@pytest.mark.parametrize("command", [["admit", "--budget-bps", "1"], ["solve"], ["simulate"]])
def test_stream_rate_that_is_not_positive_and_finite_is_refused(peers_csv, capsys, command, package, delay_ms, stream):
    code = main([*command, "--input", peers_csv, "--package-bits", package, "--delay-ms", delay_ms])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[validation]: livestream bandwidth {stream}\n"
    assert captured.out == ""


@pytest.mark.parametrize("delay_ms", ["0", "-5", "nan"])
def test_bad_delay_is_named_as_the_delay(peers_csv, capsys, delay_ms):
    code = main(["solve", "--input", peers_csv, "--livestream-bps", "10000", "--delay-ms", delay_ms])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error[validation]: delay_bound must be positive and finite, got {float(delay_ms) / 1000.0}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "sizes,message",
    [
        (["7"], "no upload/download range given for cluster size 7"),
        (["5", "7"], "no upload/download range given for cluster size 7"),
        (["0"], "cluster sizes must be >= 1, got 0"),
        (["-3"], "cluster sizes must be >= 1, got -3"),
    ],
    ids=["no-ranges", "one-without-ranges", "zero", "negative"],
)
@pytest.mark.parametrize("source", ["defaults", "scenario-file"])
def test_sweep_size_without_ranges_is_validation_error(tmp_path, capsys, sizes, message, source):
    argv = ["sweep", "--sizes", *sizes]
    if source == "scenario-file":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"cluster_sizes": [5, 10]}), encoding="utf-8")
        argv += ["--input", str(scenario)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[validation]: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("bad", [math.nan, 0.0])
def test_admit_refuses_a_bandwidth_that_is_not_positive_and_finite(tmp_path, capsys, bad):
    path = tmp_path / "peers.csv"
    path.write_text(f"id,u_bps,d_bps\na,{bad},20000\nb,15000,30000\n", encoding="utf-8")
    code = main(["admit", "--input", str(path), "--budget-bps", "15000", "--livestream-bps", "10000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[parse]: {path}:2: bandwidths must be positive and finite, got {bad}, 20000.0\n"
    assert captured.out == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
@pytest.mark.parametrize("side", ["upload", "download"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_peer_file_refuses_a_bandwidth_that_is_not_positive_and_finite(tmp_path, capsys, fmt, side, bad):
    # PeerProfile refuses the value; both loaders turn that into a parse error naming the row.
    upload, download = (bad, 20000.0) if side == "upload" else (10000.0, bad)
    path = tmp_path / f"peers.{fmt}"
    if fmt == "csv":
        path.write_text(f"id,u_bps,d_bps\nb,15000,30000\na,{upload},{download}\n", encoding="utf-8")
        where = f"{path}:3"
    else:
        peers = [{"id": "b", "u_bps": 15000, "d_bps": 30000}, {"id": "a", "u_bps": upload, "d_bps": download}]
        path.write_text(json.dumps(peers), encoding="utf-8")
        where = f"{path}: peer #2"
    code = main(["solve", "--input", str(path), "--livestream-bps", "10000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[parse]: {where}: bandwidths must be positive and finite, got {upload}, {download}\n"
    assert captured.out == ""


def _scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _sweep_stdout(capsys, argv):
    assert main(["sweep", *argv]) == 0
    return capsys.readouterr().out


def test_sweep_seed_order_with_a_scenario_file(tmp_path, monkeypatch, capsys):
    # --seed, else the file's seed, else ACIDE_SEED, else 42.
    unseeded = _scenario(tmp_path, {"cluster_sizes": [5]}, "unseeded.json")
    seeded = _scenario(tmp_path, {"cluster_sizes": [5], "seed": 4}, "seeded.json")
    seed_4, seed_99 = (_sweep_stdout(capsys, ["--sizes", "5", "--seed", s]) for s in ("4", "99"))
    assert seed_4 != seed_99
    monkeypatch.setenv("ACIDE_SEED", "99")
    assert _sweep_stdout(capsys, ["--input", unseeded]) == seed_99
    assert _sweep_stdout(capsys, ["--input", seeded]) == seed_4
    assert _sweep_stdout(capsys, ["--input", seeded, "--seed", "99"]) == seed_99
    monkeypatch.setenv("ACIDE_SEED", "x")
    assert _sweep_stdout(capsys, ["--input", seeded]) == seed_4
    assert main(["sweep", "--input", unseeded]) == 2
    assert capsys.readouterr().err == "error[parse]: ACIDE_SEED='x' is not an integer seed\n"


def test_sweep_sizes_use_the_scenario_files_ranges(tmp_path, capsys):
    ranges = {"upload_ranges": {"7": [10000, 20000]}, "download_ranges": {"7": [20000, 30000]}}
    listed_as_5 = _scenario(tmp_path, {"cluster_sizes": [5], **ranges}, "five.json")
    listed_as_7 = _scenario(tmp_path, {"cluster_sizes": [7], **ranges}, "seven.json")
    out = _sweep_stdout(capsys, ["--input", listed_as_5, "--sizes", "7", "--seed", "1"])
    assert out == _sweep_stdout(capsys, ["--input", listed_as_7, "--seed", "1"])
    assert {row.split(",")[0] for row in out.splitlines()[1:]} == {"7"}


def test_scenario_ranges_fall_back_to_the_built_in_ones_size_by_size(tmp_path, capsys):
    # The file gives only size 10's upload range; size 5 keeps both built-in ranges.
    partial = _scenario(
        tmp_path, {"cluster_sizes": [5, 10], "upload_ranges": {"10": [10000, 25000]}}, "partial.json"
    )
    full = _scenario(tmp_path, {
        "cluster_sizes": [5, 10],
        "upload_ranges": {"5": [10000, 20000], "10": [10000, 25000]},
        "download_ranges": {"5": [20000, 30000], "10": [30000, 50000]},
    }, "full.json")
    out = _sweep_stdout(capsys, ["--input", partial, "--seed", "1"])
    assert out == _sweep_stdout(capsys, ["--input", full, "--seed", "1"])
    defaults = _sweep_stdout(capsys, ["--sizes", "5", "10", "--seed", "1"])
    size_5_rows = [row for row in defaults.splitlines() if row.startswith("5,")]
    assert size_5_rows and set(size_5_rows) < set(out.splitlines())
    assert out != defaults


def test_scenario_size_without_ranges_is_named(tmp_path, capsys):
    assert main(["sweep", "--input", _scenario(tmp_path, {"cluster_sizes": [7]})]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error[validation]: no upload/download range given for cluster size 7\n"
    assert captured.out == ""


@pytest.mark.parametrize("data", [[5, 10], "5", 5, None], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("extra", [[], ["--sizes", "5", "--seed", "1"]], ids=["plain", "with-flags"])
def test_scenario_file_that_is_not_an_object_is_malformed(tmp_path, capsys, data, extra):
    path = _scenario(tmp_path, data)
    assert main(["sweep", "--input", path, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error[validation]: {path}: malformed scenario: expected a JSON object\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "data,key",
    [
        ({"cluster_sizes": 5}, "cluster_sizes"),
        ({"upload_ranges": [1, 2]}, "upload_ranges"),
        ({"livestream_bandwidths_bps": "12"}, "livestream_bandwidths_bps"),
        ({"budgets_bps": "99"}, "budgets_bps"),
        ({"cluster_sizes": "5"}, "cluster_sizes"),
        ({"upload_ranges": {"5": "12"}}, "upload_ranges"),
        ({"upload_ranges": {"5": [1]}}, "upload_ranges"),
        ({"seed": [1]}, "seed"),
    ],
    ids=["number-sizes", "list-ranges", "string-rates", "string-budgets", "string-sizes",
         "string-pair", "short-pair", "list-seed"],
)
def test_wrongly_shaped_scenario_value_is_malformed(tmp_path, capsys, data, key):
    # A string where a list belongs must not be read character by character.
    path = _scenario(tmp_path, data)
    assert main(["sweep", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[validation]: {path}: malformed scenario: {key}: expected ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_removed_table1_defaults_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--table1-defaults"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --table1-defaults" in captured.err


@pytest.mark.parametrize("command", ["curve", "profile"])
@pytest.mark.parametrize(
    "sizes,message",
    [
        (["7"], "no upload/download range given for cluster size 7"),
        (["5", "7"], "no upload/download range given for cluster size 7"),
        (["0"], "cluster sizes must be >= 1, got 0"),
        (["-3"], "cluster sizes must be >= 1, got -3"),
    ],
    ids=["no-ranges", "one-without-ranges", "zero", "negative"],
)
def test_pool_size_fault_writes_no_file(tmp_path, capsys, command, sizes, message):
    out = tmp_path / "out" / "table.csv"
    out.parent.mkdir()
    code = main([command, "--sizes", *sizes, "--livestream-bps", "10000", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[validation]: {message}\n"
    assert captured.out == ""
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize(
    "upload,download,message",
    [
        ([20000, 10000], [20000, 30000], "upload_ranges[5] must satisfy 0 < low <= high, both finite, got [20000.0, 10000.0]"),
        ([10000, 20000], [20000, math.nan], "download_ranges[5] must satisfy 0 < low <= high, both finite, got [20000.0, nan]"),
        ([10000, math.inf], [20000, 30000], "upload_ranges[5] must satisfy 0 < low <= high, both finite, got [10000.0, inf]"),
        ([50000, 60000], [20000, 30000], "impossible constraint: smallest upload 50000.0 exceeds largest download 30000.0"),
    ],
    ids=["inverted", "nan", "infinite", "impossible-pair"],
)
def test_scenario_range_fault_has_the_rule_message(tmp_path, capsys, upload, download, message):
    # json.dumps writes nan and inf as the JSON literals NaN and Infinity, which the reader accepts.
    ranges = {"upload_ranges": {"5": upload}, "download_ranges": {"5": download}}
    out = tmp_path / "records.csv"
    assert main(["sweep", "--input", _scenario(tmp_path, {"cluster_sizes": [5], **ranges}), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error[validation]: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_closed_pipe_exits_1_without_a_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "acide.cli", "sweep"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()  # at once, long before the command writes, so every write meets a closed pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# Each command's argv up to --output, {peers} standing for a peer file.
OUTPUT_COMMANDS = {
    "solve": ["solve", "--input", "{peers}", "--livestream-bps", "10000"],
    "admit": ["admit", "--input", "{peers}", "--budget-bps", "15000", "--livestream-bps", "10000"],
    "simulate": ["simulate", "--input", "{peers}", "--livestream-bps", "10000"],
    "sweep": ["sweep", "--sizes", "5"],
    "curve": ["curve", "--sizes", "5", "--livestream-bps", "10000"],
    "profile": ["profile", "--sizes", "5", "--livestream-bps", "10000"],
}


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_output_into_a_missing_directory_is_an_output_error(tmp_path, peers_csv, capsys, command):
    out = tmp_path / "absent" / "out.csv"
    argv = [*(a.format(peers=peers_csv) for a in OUTPUT_COMMANDS[command]), "--output", str(out)]
    # curve and profile write one file per size, suffixed _n<size>.
    opened = out.with_name("out_n5.csv") if command in ("curve", "profile") else out
    error = f"error[output]: {opened}: {os.strerror(errno.ENOENT)}\n"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    # Nothing reaches stdout: the files are written before any line is printed.
    assert (captured.out, captured.err) == ("", error)
    proc = subprocess.run([sys.executable, "-m", "acide.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


@pytest.mark.parametrize(
    "argv, name, data",
    [
        (["solve", "--livestream-bps", "10000", "--input"], "peers.csv", b"id,u_bps,d_bps\n\xff,10000,20000\n"),
        (["solve", "--livestream-bps", "10000", "--input"], "peers.json",
         b'[{"id": "\xff", "u_bps": 10000, "d_bps": 20000}]'),
        (["sweep", "--input"], "scenario.json", b'{"cluster_sizes": [5], "seed": "\xff"}'),
    ],
    ids=["csv", "json", "scenario"],
)
def test_input_that_is_not_utf8_is_a_parse_error_naming_the_file(tmp_path, capsys, argv, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as decode_error:
        data.decode("utf-8")
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"error[parse]: {path}: {decode_error.value}\n"


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (["solve", "--livestream-bps", "10000", "--input"], "peers.csv", PEERS_CSV),
        (["solve", "--livestream-bps", "10000", "--input"], "peers.csv", PEERS_CSV.partition("\n")[2]),
        (["solve", "--livestream-bps", "10000", "--input"], "peers.json",
         '[{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": "b", "u_bps": 15000, "d_bps": 30000}]'),
        (["sweep", "--input"], "scenario.json", '{"cluster_sizes": [5], "seed": 3}'),
    ],
    ids=["csv-header", "csv-no-header", "json", "scenario"],
)
def test_input_that_starts_with_a_byte_order_mark_reads_as_without_one(tmp_path, capsys, argv, name, text):
    path = tmp_path / name
    results = []
    for data in (text.encode("utf-8"), b"\xef\xbb\xbf" + text.encode("utf-8")):
        path.write_bytes(data)
        results.append((main([*argv, str(path)]), *capsys.readouterr()))
    assert results[0][0] == 0
    assert results[1] == results[0]


# Plans that do not divide the package: an upload sum that overflows, S*u
# that overflows with no sum, and a block that underflows to 0 bits.
UNPLANNABLE = {
    "sum-overflow": ("a,1e308,1.5e308\nb,1.2e308,1.6e308\n", "20000"),
    "single-peer-overflow": ("a,1e308,1.5e308\n", "20000"),
    "block-underflow": ("a,1e-300,1e301\nb,1e300,1e301\n", "1e6"),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "json-file"])
@pytest.mark.parametrize("command", ["solve", "admit", "simulate"])
@pytest.mark.parametrize("case", list(UNPLANNABLE))
def test_every_command_refuses_a_plan_that_does_not_divide_the_package(tmp_path, capsys, case, command, to_file):
    peers, budget = UNPLANNABLE[case]
    path = tmp_path / "peers.csv"
    path.write_text(peers, encoding="utf-8")
    out = tmp_path / "x.json"
    argv = [command, "--input", str(path), "--livestream-bps", "10000"]
    argv += ["--budget-bps", budget] if command == "admit" else []
    argv += ["--output", str(out), "--format", "json"] if to_file else []
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error[validation]: block size or rate is not positive and finite for peer a\n"
    assert captured.out == ""
    assert not out.exists()


def test_profile_of_an_infeasible_cluster_is_the_infeasible_error(tmp_path, capsys):
    # solve and simulate refuse such a cluster first, with stream-over-mean-upload,
    # and admission never plans one, so profile is the one command that gets here;
    # the plan's refusal is a validation error like any other.
    out = tmp_path / "p.csv"
    code = main(["profile", "--sizes", "5", "--livestream-bps", "100000", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error[validation]: no feasible allocation for n=5 peers with total upload 69435.62 bps: "
        "livestream bandwidth 100000.00 bps exceeds what the cluster can redistribute within the delay bound\n"
    )
    assert not (tmp_path / "p_n5.csv").exists()


def test_json_stream_rate_solves_like_the_flag(tmp_path, peers_csv, capsys):
    # PEERS_CSV's three peers, with the stream rate in the file in place of the flag.
    path = tmp_path / "peers.json"
    peers = [{"id": i, "u_bps": u, "d_bps": 2 * u} for i, u in [("a", 10000), ("b", 15000), ("c", 20000)]]
    path.write_text(json.dumps({"peers": peers, "stream": {"livestream_bps": 10000}}), encoding="utf-8")
    assert main(["solve", "--input", peers_csv, "--livestream-bps", "10000"]) == 0
    flag = capsys.readouterr()
    assert main(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr() == flag
    assert main(["solve", "--input", str(path), "--package-bits", "3000"]) == 0
    assert "total allocated bandwidth: 45000.00 bps\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "stream,unknown",
    [({"delay_msec": 100, "livestream_bps": 10000}, "delay_msec"),
     ({"zeta": 1, "package_bits": 2000, "alpha": None, "beta": "x"}, "beta, zeta")],
    ids=["misspelt", "sorted"],
)
def test_unknown_json_stream_key_is_parse_error(tmp_path, capsys, stream, unknown):
    # A null value counts as absent, so alpha is not named.
    path = tmp_path / "peers.json"
    peers = [{"id": "a", "u_bps": 10000, "d_bps": 20000}, {"id": "b", "u_bps": 15000, "d_bps": 30000}]
    path.write_text(json.dumps({"peers": peers, "stream": stream}), encoding="utf-8")
    code = main(["solve", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error[parse]: {path}: unknown stream key(s): {unknown}\n"
    assert captured.out == ""


def test_json_null_stream_values_and_other_top_level_keys_are_ignored(tmp_path, peers_csv, capsys):
    path = tmp_path / "peers.json"
    peers = [{"id": i, "u_bps": u, "d_bps": 2 * u} for i, u in [("a", 10000), ("b", 15000), ("c", 20000)]]
    document = {"peers": peers, "stream": {"livestream_bps": 10000, "delay_msec": None, "package_bits": None},
                "meta": {"note": "kept out of the plan"}}
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["solve", "--input", peers_csv, "--livestream-bps", "10000"]) == 0
    flag = capsys.readouterr()
    assert main(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr() == flag


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_peers_listed_in_either_order_print_the_same_bytes(tmp_path, capsys, command):
    # The stream rate is the uploads' mean summed ascending; summed descending,
    # the mean is one ulp lower, and validation once read that as stream-over-mean-upload.
    rows = ["a,0.1,1\n", "b,0.2,1\n", "c,0.3,1\n"]
    path = tmp_path / "peers.csv"
    argv = [command, "--input", str(path), "--package-bits", "0.20000000000000004", "--delay-ms", "1000"]
    results = []
    for order in (rows, rows[::-1]):
        path.write_text("".join(order), encoding="utf-8")
        results.append((main(argv), *capsys.readouterr()))
    assert results[0][0] == 0
    assert results[1] == results[0]
