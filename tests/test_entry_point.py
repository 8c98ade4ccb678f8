"""The console entry point: `python -m acide.cli` behaves as `cli.main()` does,
and only the entry point, not `main()`, freezes the start-up heap.

Every run here is a fresh interpreter, so that no test sees the collector
state another one left behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
PEERS_CSV = "id,u_bps,d_bps\na,10000,20000\nb,15000,30000\nc,20000,40000\n"
STREAM_FLAGS = ["--livestream-bps", "10000", "--delay-ms", "200"]

# Runs cli.main(argv) in process and prints its exit code, its stdout and
# stderr, and the number of objects the collector holds frozen afterwards.
MAIN_SCRIPT = """
import contextlib, gc, io, json, sys
from acide import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue(), gc.get_freeze_count()]))
"""

# Runs the entry point itself and prints, to stderr after the command's own
# output, how many objects it left frozen.
RUN_SCRIPT = """
import gc, sys
from acide import cli
try:
    cli.run()
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count(), file=sys.stderr)
"""


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, env=ENV, timeout=120)


def in_process_main(argv: list[str]) -> tuple[int, str, str, int]:
    result = fresh_python("-c", MAIN_SCRIPT, *argv)
    assert result.returncode == 0, result.stderr
    code, out, err, frozen = json.loads(result.stdout)
    return code, out, err, frozen


# The files command() writes: a valid peer file, a malformed one, one with a
# field over the csv module's field size limit, and one that is not UTF-8.
FILES = {
    "peers": PEERS_CSV.encode(),
    "bad": b"id,u_bps,d_bps\na,ten,20000\n",
    "big": b"id,u_bps,d_bps\n" + b"x" * 200_000 + b",10000,20000\n",
    "latin": b"id,u_bps,d_bps\n\xe9,10000,20000\n",
}

# argv, with {peers}, {bad}, {big} and {latin} standing for those files and
# {tmp} for the test's directory, and the exit code main() returns.
COMMANDS = {
    "simulate": (["simulate", "--input", "{peers}", *STREAM_FLAGS], 0),
    "admit": (["admit", "--input", "{peers}", "--budget-bps", "15000", *STREAM_FLAGS], 0),
    "exit-2": (["solve", "--input", "{bad}", *STREAM_FLAGS], 2),
    "exit-2-field-limit": (["solve", "--input", "{big}", *STREAM_FLAGS], 2),
    "exit-2-not-utf8": (["solve", "--input", "{latin}", *STREAM_FLAGS], 2),
    "exit-2-output": (["sweep", "--sizes", "5", "--output", "{tmp}/absent/sweep.csv"], 2),
    "exit-3": (["admit", "--input", "{peers}", "--budget-bps", "9000", *STREAM_FLAGS], 3),
}


def command(name: str, tmp_path: Path) -> tuple[list[str], int]:
    paths = {key: tmp_path / f"{key}.csv" for key in FILES}
    for key, path in paths.items():
        path.write_bytes(FILES[key])
    argv, code = COMMANDS[name]
    return [a.format(tmp=tmp_path, **paths) for a in argv], code


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_module_entry_point_matches_in_process_main(tmp_path, name):
    argv, expected_code = command(name, tmp_path)
    code, out, err, _ = in_process_main(argv)
    assert code == expected_code
    if code == 0:
        assert out and not err
    else:
        # One error line and no traceback.
        assert not out and err.startswith("error[") and err.count("\n") == 1 and err.endswith("\n")
    result = fresh_python("-m", "acide.cli", *argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), err.encode())


def test_main_leaves_the_collector_unfrozen(tmp_path):
    code, _, _, frozen = in_process_main(command("simulate", tmp_path)[0])
    assert code == 0
    assert frozen == 0


def test_run_freezes_the_start_up_heap(tmp_path):
    result = fresh_python("-c", RUN_SCRIPT, *command("admit", tmp_path)[0])
    *err_lines, last = result.stderr.decode().splitlines()
    code, frozen = map(int, last.split())
    assert (code, err_lines) == (0, [])
    assert b"admitted 2 of 3" in result.stdout
    assert frozen > 0
