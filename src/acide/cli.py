"""Command-line front end: solve, admit, simulate, sweep, curve, profile.

A command returns the lines it prints and the files it writes; main writes
every file first, in order, then prints the lines, so a command that fails
prints nothing on stdout. Exit codes: 0 success, 2 parse/validation/output
failure, 3 insufficient budget. Every failure prints one line to stderr of
the form `error[<code>]: <detail>` so scripts can branch on the reason;
`error[output]` names an --output file that cannot be opened for writing.
The default seed is 42 and may be overridden by the ACIDE_SEED environment
variable or the --seed flag (flag wins); for sweep, a scenario file's seed
ranks between the two.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from acide.core import (
    DEFAULT_DELAY_BOUND,
    DEFAULT_SEED,
    ClusterRefused,
    InsufficientBudgetError,
    PeerProfile,
    StreamParams,
    min_bandwidth,
    number,
    validate_cluster,
)

if TYPE_CHECKING:
    from acide import output

    # A file a command writes: (path, columns, rows, document), path None for
    # stdout. rows and document take no arguments and only the one for the
    # format written is called: document, when given, for JSON, else rows.
    File = tuple[str | None, output.Columns, Callable[[], Iterable[Sequence]], Callable[[], dict] | None]
    Result = tuple[list[str], list[File]]

# json, pathlib and the acide modules other than core are imported only by
# the functions that use them: admit loads neither acide.sim nor
# acide.output, and simulate without --output loads neither acide.admission
# nor acide.output.

SEED_ENV_VAR = "ACIDE_SEED"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


class ParseInputError(Exception):
    """Malformed input file; message names the file (and line where known)."""


def _fail(code: str, message: str) -> None:
    print(f"error[{code}]: {message}", file=sys.stderr)


def _seed(args: argparse.Namespace) -> int:
    """--seed, else the ACIDE_SEED environment variable, else the default seed."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseInputError(f"{SEED_ENV_VAR}={env!r} is not an integer seed") from exc
    return DEFAULT_SEED


def _delay_s(args: argparse.Namespace, stream_info: dict | None = None) -> float:
    """Delay bound in seconds: --delay-ms, else the input file's delay_ms, else 200 ms."""
    delay_ms = args.delay_ms
    if delay_ms is None and stream_info:
        delay_ms = stream_info.get("delay_ms")
    if delay_ms is None:
        delay_ms = DEFAULT_DELAY_BOUND * 1000.0
    return delay_ms / 1000.0


def _peer(where: str, ident, upload, download) -> PeerProfile:
    """One row of a peer file, checked the same way for CSV and JSON.

    The id must be a non-blank string, stored stripped, and both bandwidths
    positive, finite numbers; `where` names the file and row in the error.
    """
    if ident is None or isinstance(ident, str) and not ident.strip():
        raise ParseInputError(f"{where}: empty peer id")
    if not isinstance(ident, str):
        raise ParseInputError(f"{where}: peer id must be a string, got {ident!r}")
    try:
        u, d = number(upload), number(download)
    except (TypeError, ValueError):
        raise ParseInputError(
            f"{where}: u_bps and d_bps must be numbers, got {upload!r}, {download!r}"
        ) from None
    try:
        return PeerProfile(ident.strip(), u, d)
    except ValueError:
        raise ParseInputError(f"{where}: bandwidths must be positive and finite, got {u}, {d}") from None


def load_peers_csv(path: str) -> list[PeerProfile]:
    """Read peers from CSV rows id,u_bps,d_bps; a matching header row is optional.

    Only the first record may be the header. A record of 3 fields that makes
    a PeerProfile with a non-blank id is kept; any other is skipped if blank
    and otherwise refused, with _peer's message when it has 3 fields.
    Errors name the physical line where the record ends, which differs from
    the record number once a quoted field spans lines.
    """
    peers = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fp:
            reader = csv.reader(fp)
            first = next(reader, [])
            rows = reader if [c.strip().lower() for c in first[:1]] == ["id"] else chain([first], reader)
            for row in rows:
                try:
                    ident, upload, download = row
                    peer = PeerProfile(ident.strip(), float(upload), float(download))
                except ValueError:
                    pass
                else:
                    if peer.id:
                        peers.append(peer)
                        continue
                where = f"{path}:{reader.line_num}"
                if len(row) == 3:
                    _peer(where, *row)  # raises: the test accepts all _peer accepts
                elif row and (len(row) > 1 or row[0].strip()):
                    raise ParseInputError(f"{where}: expected 3 fields id,u_bps,d_bps, got {len(row)}")
    except OSError as exc:
        raise ParseInputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseInputError(f"{path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseInputError(f"{path}:{reader.line_num}: {exc}") from exc
    if not peers:
        raise ParseInputError(f"{path}: no peers found")
    return peers


def _read_json(path: str):
    """The parsed content of a JSON file; an unreadable file or bad JSON is a ParseInputError."""
    import json

    try:
        with open(path, "r", encoding="utf-8-sig") as fp:
            return json.load(fp)
    except OSError as exc:
        raise ParseInputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseInputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseInputError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def load_peers_json(path: str) -> tuple[list[PeerProfile], dict]:
    """Read peers (and optional stream section) from a JSON input file.

    Accepts either a bare list of peer objects or {"peers": [...],
    "stream": {"package_bits": ..., "delay_ms": ...}}. Peer objects carry
    id, u_bps, d_bps.
    """
    data = _read_json(path)
    stream_info: dict = {}
    if isinstance(data, dict):
        raw_peers = data.get("peers")
        if not isinstance(raw_peers, list):
            raise ParseInputError(f"{path}: expected a \"peers\" list")
        stream_info = _stream_section(path, data.get("stream"))
    elif isinstance(data, list):
        raw_peers = data
    else:
        raise ParseInputError(f"{path}: expected a peer list or an object with one")
    peers = []
    for i, item in enumerate(raw_peers):
        try:
            ident, upload, download = item["id"], item["u_bps"], item["d_bps"]
        except (KeyError, TypeError) as exc:
            raise ParseInputError(f"{path}: peer #{i + 1} is malformed: {exc}") from exc
        peers.append(_peer(f"{path}: peer #{i + 1}", ident, upload, download))
    if not peers:
        raise ParseInputError(f"{path}: no peers found")
    return peers, stream_info


def _stream_section(path: str, section) -> dict:
    """The stream section of a JSON peer file as {key: float}; null values count as absent.

    Only the keys _resolve_stream reads are allowed, so that a misspelt key is refused.
    """
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ParseInputError(f"{path}: \"stream\" must be an object, got {section!r}")
    given = {key: value for key, value in section.items() if value is not None}
    if unknown := sorted(given.keys() - {"package_bits", "delay_ms", "livestream_bps"}):
        raise ParseInputError(f"{path}: unknown stream key(s): {', '.join(unknown)}")
    try:
        return {key: number(value) for key, value in given.items()}
    except (TypeError, ValueError):
        raise ParseInputError(f"{path}: stream values must be numbers, got {section!r}") from None


def _load_peer_input(path: str) -> tuple[list[PeerProfile], dict]:
    if path.endswith(".json"):
        return load_peers_json(path)
    return load_peers_csv(path), {}


def _resolve_stream(args: argparse.Namespace, stream_info: dict) -> StreamParams:
    """Stream parameters from flags, falling back to the input file's values.

    Flags override the file. Package size comes from --package-bits, or from
    --livestream-bps times the delay bound. The delay bound defaults to 200 ms.
    """
    delay_s = _delay_s(args, stream_info)
    if args.package_bits is not None:
        package = args.package_bits
    elif args.livestream_bps is not None:
        package = args.livestream_bps * delay_s
    elif stream_info.get("package_bits") is not None:
        package = stream_info["package_bits"]
    elif stream_info.get("livestream_bps") is not None:
        package = stream_info["livestream_bps"] * delay_s
    else:
        raise ValueError(
            "no package size given: pass --package-bits or --livestream-bps, "
            "or put a stream section in the input file"
        )
    return StreamParams(package_size=package, delay_bound=delay_s)


def _check_cluster(peers, stream) -> None:
    """Raise ClusterRefused with every violated cluster assumption."""
    if violations := validate_cluster(peers, stream).violations:
        raise ClusterRefused(violations)


def _fmt_bw(x: float) -> str:
    return f"{x:.2f}"


def _with_output(args: argparse.Namespace, lines: list[str], table: Callable[..., tuple]) -> Result:
    """A command's lines and, with --output, its file and a `wrote` line.

    table(output) gives the file's columns, rows and document from
    acide.output, which is imported only when there is a file to write.
    """
    if not args.output:
        return lines, []
    from acide import output

    return [*lines, f"wrote {args.output}"], [(args.output, *table(output))]


def _cmd_solve(args: argparse.Namespace) -> Result:
    peers, stream_info = _load_peer_input(args.input)
    stream = _resolve_stream(args, stream_info)
    _check_cluster(peers, stream)
    plan = min_bandwidth(peers, stream)
    lines = [
        f"peers: {len(plan.peers)}",
        f"phase 1: {plan.phase1_time:.6f} s   phase 2: {plan.phase2_time:.6f} s",
        f"total allocated bandwidth: {_fmt_bw(plan.total_bandwidth)} bps",
        "id,u_bps,s_bits,bw_bps",
        *(f"{p.id},{_fmt_bw(p.upload)},{s:.6f},{_fmt_bw(bw)}"
          for p, s, bw in zip(plan.peers, plan.block_sizes, plan.peer_bandwidths)),
    ]
    return _with_output(args, lines, lambda output: (
        output.PLAN_COLUMNS, partial(output.plan_rows, plan), partial(output.plan_document, plan)))


def _cmd_admit(args: argparse.Namespace) -> Result:
    from acide.admission import AdmissionBudget, join_cluster

    peers, stream_info = _load_peer_input(args.input)
    stream = _resolve_stream(args, stream_info)
    outcome = join_cluster(AdmissionBudget(float(args.budget_bps), tuple(peers), stream))
    lines = [
        f"admitted {len(outcome.admitted)} of {len(peers)} candidates",
        f"allocated bandwidth: {_fmt_bw(outcome.plan.total_bandwidth)} bps "
        f"(budget {_fmt_bw(args.budget_bps)} bps)",
        f"efficiency: {outcome.efficiency * 100.0:.2f}%",
    ]
    if outcome.rejected:
        lines.append(f"rejected: {', '.join(p.id for p in outcome.rejected)}")
    return _with_output(args, lines, lambda output: (
        output.PLAN_COLUMNS, partial(output.plan_rows, outcome.plan),
        partial(output.outcome_document, outcome)))


def _cmd_simulate(args: argparse.Namespace) -> Result:
    from acide.sim import playback_check, simulate

    peers, stream_info = _load_peer_input(args.input)
    stream = _resolve_stream(args, stream_info)
    _check_cluster(peers, stream)
    plan = min_bandwidth(peers, stream)
    trace = simulate(plan)
    report = playback_check(trace, stream)
    lines = [
        f"playback: {'continuous' if report.continuous else 'VIOLATION'}",
        f"makespan: {trace.makespan:.9f} s (delay bound {stream.delay_bound:.9f} s)",
    ]
    if not report.continuous:
        lines.append(f"worst peer: {report.worst_peer} overshoot {report.overshoot:.9f} s")
    # The events are built only by the writer, so only once whichever format it writes.
    return _with_output(args, lines, lambda output: (
        output.TRACE_COLUMNS, lambda: trace.events, partial(output.trace_document, trace)))


def _cmd_sweep(args: argparse.Namespace) -> Result:
    from acide import output
    from acide.experiments import run_admission_sweep, scenario_from_dict

    data = _read_json(args.input) if args.input else {}
    if not isinstance(data, dict):
        raise ValueError(f"{args.input}: malformed scenario: expected a JSON object")
    if args.sizes:
        data["cluster_sizes"] = args.sizes
    # --seed, else the file's seed, else ACIDE_SEED, else the default seed.
    if args.seed is not None or "seed" not in data:
        data["seed"] = _seed(args)
    spec = scenario_from_dict(data, source=args.input or "<scenario>")
    records = run_admission_sweep(spec)
    lines = [f"wrote {len(records)} records to {args.output}"] if args.output else []
    return lines, [(args.output, output.RECORD_COLUMNS, partial(iter, records), None)]


def _per_size(args: argparse.Namespace, columns: output.Columns, tables: Iterable[tuple]) -> Result:
    """One file per (size, rows) table at --output suffixed _n<size>, each with a `wrote` line.

    The files keep --output's extension, or take the format's when it has none.
    """
    from pathlib import Path

    p = Path(args.output)
    suffix = p.suffix or f".{args.format}"
    files = [(str(p.with_name(f"{p.stem}_n{size}{suffix}")), columns, partial(iter, rows), None)
             for size, rows in tables]
    return [f"wrote {path}" for path, *_ in files], files


def _cmd_curve(args: argparse.Namespace) -> Result:
    from acide import output
    from acide.experiments import admitted_vs_budget_curve

    seed, delay_s = _seed(args), _delay_s(args)
    # Each size once, in the order first given; every curve is computed
    # before any is written, so a failing size leaves no files.
    curves = [
        (size, admitted_vs_budget_curve(size, float(args.livestream_bps), seed, delay_bound=delay_s))
        for size in dict.fromkeys(args.sizes)
    ]
    return _per_size(args, output.CURVE_COLUMNS, curves)


def _cmd_profile(args: argparse.Namespace) -> Result:
    from acide import output
    from acide.experiments import DEFAULT_DOWNLOAD_RANGES, DEFAULT_UPLOAD_RANGES, block_size_profile

    seed, delay_s = _seed(args), _delay_s(args)
    stream = StreamParams(package_size=float(args.livestream_bps) * delay_s, delay_bound=delay_s)
    profiles = block_size_profile(args.sizes, DEFAULT_UPLOAD_RANGES, DEFAULT_DOWNLOAD_RANGES, stream, seed)
    tables = ((size, output.profile_rows(rows)) for size, rows in sorted(profiles.items()))
    return _per_size(args, output.PROFILE_COLUMNS, tables)


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--package-bits", type=float, help="media package size in bits")
    group.add_argument(
        "--livestream-bps", type=float, help="livestream bandwidth; package = rate * delay bound"
    )
    parser.add_argument("--delay-ms", type=float, help="delay bound in milliseconds (default 200)")


def _add_io_flags(parser: argparse.ArgumentParser, output_required: bool = False) -> None:
    parser.add_argument("--output", required=output_required, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acide",
        description=(
            "Bandwidth planning, cluster admission, and two-phase distribution "
            "simulation for P2P livestream clusters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="optimal block sizes and bandwidths for a peer list")
    solve.add_argument("--input", required=True, help="peer list (CSV id,u_bps,d_bps or JSON)")
    _add_stream_flags(solve)
    _add_io_flags(solve)
    solve.set_defaults(handler=_cmd_solve)

    admit = sub.add_parser("admit", help="greedy admission under a bandwidth budget")
    admit.add_argument("--input", required=True, help="candidate list (CSV or JSON)")
    admit.add_argument("--budget-bps", type=float, required=True, help="pre-reserved bandwidth budget")
    _add_stream_flags(admit)
    _add_io_flags(admit)
    admit.set_defaults(handler=_cmd_admit)

    simulate_p = sub.add_parser("simulate", help="solve, then replay the two-phase distribution")
    simulate_p.add_argument("--input", required=True, help="peer list (CSV or JSON)")
    _add_stream_flags(simulate_p)
    _add_io_flags(simulate_p)
    simulate_p.set_defaults(handler=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="admission sweep over sizes, stream rates, and budgets")
    sweep.add_argument("--input", help="scenario JSON (defaults used when omitted)")
    sweep.add_argument("--sizes", type=int, nargs="+", help="restrict to these cluster sizes")
    sweep.add_argument("--seed", type=int, help="override the scenario seed")
    _add_io_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    for name, handler, help_text, sizes_help in (
        ("curve", _cmd_curve, "admitted peers vs budget for drawn pools", "pool sizes"),
        ("profile", _cmd_profile, "per-peer block size and bandwidth tables", "cluster sizes"),
    ):
        tables = sub.add_parser(name, help=help_text)
        tables.add_argument("--sizes", type=int, nargs="+", required=True, help=sizes_help)
        tables.add_argument("--livestream-bps", type=float, required=True)
        tables.add_argument("--delay-ms", type=float, help="delay bound in milliseconds (default 200)")
        tables.add_argument("--seed", type=int)
        _add_io_flags(tables, output_required=True)
        tables.set_defaults(handler=handler)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines, files = args.handler(args)
        for path, columns, rows, document in files:
            from acide import output

            try:
                target = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
            except OSError as exc:
                _fail("output", f"{path}: {exc.strerror or exc}")
                return EXIT_INVALID
            with target as fp:
                if document is not None and args.format == "json":
                    output.write_json(fp, document())
                else:
                    output.write_table(fp, args.format, columns, rows())
    except ParseInputError as exc:
        _fail("parse", str(exc))
        return EXIT_INVALID
    except ClusterRefused as exc:
        for v in exc.violations:
            _fail(f"validation:{v.code}", v.message)
        return EXIT_INVALID
    except InsufficientBudgetError as exc:
        _fail("insufficient-budget", str(exc))
        return EXIT_BUDGET
    except ValueError as exc:
        _fail("validation", str(exc))
        return EXIT_INVALID
    for line in lines:
        print(line)
    return EXIT_OK


def run() -> None:
    """Console entry point; a reader that closes the pipe early ends it with exit 1 and no traceback.

    The heap built at start-up (site, argparse, re, typing, csv and acide) moves
    to the permanent generation first, so that finalization at exit does not
    collect the module graph cycle by cycle; the command's own objects are
    still freed by reference counting.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull, so that the
        # flush at interpreter exit does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
