"""Every table and document the commands write, in one place.

A table is a column spec, ((name, csv_format_spec), ...), and rows of raw
values aligned with it; TransferEvent and ExperimentRecord keep their fields
in the order of TRACE_COLUMNS and RECORD_COLUMNS, so their records are rows.
CSV renders each value as format(value, spec) through csv.writer, so
bandwidths get fixed decimals and ids are quoted when they need it; JSON is a
list of {name: raw value} objects at full precision. Plans, admission
outcomes and traces are also written as nested JSON documents.
"""

from __future__ import annotations

import csv
from typing import IO, TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:
    from acide.admission import AdmissionOutcome
    from acide.core import AllocationPlan
    from acide.sim import SimulationTrace

Columns = Sequence[tuple[str, str]]

PLAN_COLUMNS = (("id", ""), ("u_bps", ".2f"), ("d_bps", ".2f"), ("s_bits", ".6f"), ("bw_bps", ".2f"))
TRACE_COLUMNS = tuple(
    (name, "") for name in ("phase", "step", "sender", "receiver", "block", "start_s", "end_s", "rate_bps")
)
RECORD_COLUMNS = (
    ("N", ""), ("livestream_bps", ".2f"), ("BW_bps", ".2f"),
    ("n_admitted", ""), ("bw_bps", ".2f"), ("efficiency_pct", ".2f"),
)
CURVE_COLUMNS = (("BW_bps", ".2f"), ("n", ""))
PROFILE_COLUMNS = (("peer_index", ""), ("u_bps", ".2f"), ("s_bits", ".6f"), ("bw_bps", ".2f"))


def plan_rows(plan: AllocationPlan) -> Iterable[tuple]:
    return (
        (p.id, p.upload, p.download, s, bw)
        for p, s, bw in zip(plan.peers, plan.block_sizes, plan.peer_bandwidths)
    )


def profile_rows(rows: Iterable[tuple[float, float, float]]) -> Iterable[tuple]:
    """Profile rows (upload, block size, bandwidth), numbered from 1."""
    return ((index, *row) for index, row in enumerate(rows, start=1))


def table_dicts(columns: Columns, rows: Iterable[Sequence]) -> list[dict]:
    names = [name for name, _ in columns]
    return [dict(zip(names, row)) for row in rows]


def write_json(fp: IO[str], data: Any) -> None:
    import json  # here, so that a command writing no JSON does not load it

    json.dump(data, fp, indent=2, sort_keys=True)
    fp.write("\n")


def write_table(fp: IO[str], fmt: str, columns: Columns, rows: Iterable[Sequence]) -> None:
    """Write a table as "csv" (header row, then formatted values) or as "json"."""
    if fmt == "json":
        write_json(fp, table_dicts(columns, rows))
        return
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    specs = [spec for _, spec in columns]
    if any(specs):  # format(value, "") is str(value), which csv.writer applies itself
        rows = ([format(value, spec) for value, spec in zip(row, specs)] for row in rows)
    writer.writerows(rows)


def plan_document(plan: AllocationPlan) -> dict:
    return {
        "peers": [{"id": p.id, "u_bps": p.upload, "d_bps": p.download} for p in plan.peers],
        "block_bits": list(plan.block_sizes),
        "peer_bandwidths_bps": list(plan.peer_bandwidths),
        "total_bandwidth_bps": plan.total_bandwidth,
        "phase1_s": plan.phase1_time,
        "phase2_s": plan.phase2_time,
    }


def outcome_document(outcome: AdmissionOutcome) -> dict:
    return {
        "admitted_ids": [p.id for p in outcome.admitted],
        "rejected_ids": [p.id for p in outcome.rejected],
        "efficiency": outcome.efficiency,
        "efficiency_pct": outcome.efficiency * 100.0,
        "plan": plan_document(outcome.plan),
    }


def trace_document(trace: SimulationTrace) -> dict:
    return {
        "plan": plan_document(trace.plan),
        "events": table_dicts(TRACE_COLUMNS, trace.events),
        "completion_times_s": dict(sorted(trace.completion_times.items())),
        "makespan_s": trace.makespan,
    }
