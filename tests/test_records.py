"""The record types are immutable NamedTuples with fixed field names and order."""

from __future__ import annotations

import math

import pytest

from acide.admission import AdmissionBudget, AdmissionOutcome, join_cluster
from acide.core import (
    AllocationPlan,
    AssumptionViolation,
    PeerProfile,
    StreamParams,
    ValidationReport,
    min_bandwidth,
    validate_cluster,
)
from acide.sim import PlaybackReport, SimulationTrace, TransferEvent, playback_check, simulate

STREAM = StreamParams(2000.0, 0.2)
PEERS = (PeerProfile("a", 10000.0, 20000.0), PeerProfile("b", 15000.0, 30000.0), PeerProfile("c", 20000.0, 40000.0))
PLAN = min_bandwidth(PEERS, STREAM)
TRACE = simulate(PLAN)
BUDGET = AdmissionBudget(15000.0, PEERS, STREAM)

# (type, its field names in order, field values of one instance)
RECORDS = [
    (PeerProfile, ("id", "upload", "download"), tuple(PEERS[0])),
    (StreamParams, ("package_size", "delay_bound"), (2000.0, 0.2)),
    (
        AllocationPlan,
        ("peers", "block_sizes", "peer_bandwidths", "total_bandwidth", "phase1_time", "phase2_time"),
        tuple(PLAN),
    ),
    (AssumptionViolation, ("code", "message"), ("duplicate-id", "peer id(s) given more than once: a")),
    (ValidationReport, ("violations",), tuple(validate_cluster(PEERS + PEERS[:1], STREAM))),
    (AdmissionBudget, ("given_allocated_bandwidth", "candidates", "stream"), tuple(BUDGET)),
    (AdmissionOutcome, ("admitted", "plan", "efficiency", "rejected"), tuple(join_cluster(BUDGET))),
    (
        TransferEvent,
        ("phase", "step", "sender", "receiver", "block_index", "start_time", "end_time", "rate"),
        (2, 1, "a", "b", 1, 0.1, 0.15, 10000.0),
    ),
    (SimulationTrace, ("plan", "completion_times", "makespan"), tuple(TRACE)),
    (
        PlaybackReport,
        ("continuous", "makespan", "delay_bound", "worst_peer", "overshoot"),
        tuple(playback_check(TRACE, STREAM)),
    ),
]
parametrize_records = pytest.mark.parametrize(
    "cls,fields,values", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)


@parametrize_records
def test_field_names_and_order(cls, fields, values):
    assert cls._fields == fields
    assert tuple(cls(*values)) == values


@parametrize_records
def test_equal_fields_give_equal_values(cls, fields, values):
    a, b = cls(*values), cls(*values)
    assert a == b
    if cls is SimulationTrace:
        # completion_times is a dict, so a trace has no hash (nor had it as a dataclass).
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@parametrize_records
def test_attributes_cannot_be_assigned(cls, fields, values):
    record = cls(*values)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert tuple(record) == values


@parametrize_records
def test_positional_and_keyword_construction_agree(cls, fields, values):
    assert cls(*values) == cls(**dict(zip(fields, values)))


def test_stream_params_replace_and_make_check_the_new_values():
    stream = StreamParams(2000.0, 0.2)
    assert stream._replace(delay_bound=0.1) == StreamParams(2000.0, 0.1)
    assert type(stream._replace(delay_bound=0.1)) is StreamParams
    for changes in ({"delay_bound": math.nan}, {"package_size": -1.0}, {"package_size": math.inf}):
        with pytest.raises(ValueError):
            stream._replace(**changes)
    with pytest.raises(ValueError):
        StreamParams._make([2000.0, 0.0])


def test_admission_budget_replace_and_make_check_the_new_values():
    changed = BUDGET._replace(candidates=list(PEERS[:2]))
    assert changed.candidates == PEERS[:2]
    assert type(changed) is AdmissionBudget
    for changes in (
        {"given_allocated_bandwidth": math.inf},
        {"given_allocated_bandwidth": 0.0},
        {"candidates": ()},
        {"candidates": PEERS + PEERS[:1]},
    ):
        with pytest.raises(ValueError):
            BUDGET._replace(**changes)
    with pytest.raises(ValueError):
        AdmissionBudget._make([math.nan, PEERS, STREAM])
