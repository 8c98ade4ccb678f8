"""The record types are immutable NamedTuples with fixed field names and order."""

from __future__ import annotations

import copy
import math
import pickle
import re

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
from acide.experiments import ExperimentRecord, ScenarioSpec, default_scenario, run_admission_sweep
from acide.output import RECORD_COLUMNS, table_dicts
from acide.sim import PlaybackReport, SimulationTrace, playback_check, simulate

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
@pytest.mark.parametrize("side", ["upload", "download"])
def test_peer_profile_refuses_a_bandwidth_that_is_not_positive_and_finite(side, bad):
    good = PEERS[0]
    upload, download = (bad, good.download) if side == "upload" else (good.upload, bad)
    message = f"^{re.escape(f'peer a: bandwidths must be positive and finite, got {upload}, {download}')}$"
    with pytest.raises(ValueError, match=message):
        PeerProfile("a", upload, download)
    with pytest.raises(ValueError, match=message):
        good._replace(**{side: bad})
    with pytest.raises(ValueError, match=message):
        PeerProfile._make(["a", upload, download])


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
        {"candidates": (PeerProfile("x", 3e4, 2e4),)},
    ):
        with pytest.raises(ValueError):
            BUDGET._replace(**changes)
    with pytest.raises(ValueError):
        AdmissionBudget._make([math.nan, PEERS, STREAM])


SPEC = default_scenario(cluster_sizes=(5,), seed=3)
SCENARIO_FIELDS = (
    "cluster_sizes", "upload_ranges", "download_ranges", "delay_bound",
    "livestream_bandwidths", "budgets", "seed",
)
RECORD_FIELDS = (
    "pool_size", "livestream_bandwidth", "budget", "n_admitted", "allocated_bandwidth", "efficiency_pct",
)
SWEEP_RECORD = run_admission_sweep(SPEC)[0]
# (type, its field names in order, field values of one instance), for the sweep's records
SWEEP_RECORDS = [(ScenarioSpec, SCENARIO_FIELDS, tuple(SPEC)), (ExperimentRecord, RECORD_FIELDS, tuple(SWEEP_RECORD))]
parametrize_sweep_records = pytest.mark.parametrize(
    "cls,fields,values", SWEEP_RECORDS, ids=[cls.__name__ for cls, _, _ in SWEEP_RECORDS]
)


# Each record that checks its values when built: an instance, a good change and a bad one.
CHECKED_RECORDS = [
    (PEERS[0], {"upload": 15000.0}, {"download": math.nan}),
    (STREAM, {"delay_bound": 0.1}, {"package_size": -1.0}),
    (BUDGET, {"candidates": PEERS[:2]}, {"given_allocated_bandwidth": 0.0}),
    (SPEC, {"seed": 9}, {"seed": 1.5}),
]


@pytest.mark.parametrize(
    "record,good,bad", CHECKED_RECORDS, ids=[type(record).__name__ for record, _, _ in CHECKED_RECORDS]
)
def test_checked_record_replace_and_make_check_and_copies_keep_the_type(record, good, bad):
    cls = type(record)
    changed = record._replace(**good)
    assert type(changed) is cls
    assert changed == cls(**{**record._asdict(), **good})
    assert type(cls._make(record)) is cls
    assert cls._make(record) == record
    with pytest.raises(ValueError):
        record._replace(**bad)
    with pytest.raises(ValueError):
        cls._make({**record._asdict(), **bad}.values())
    for duplicate in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(duplicate) is cls
        assert duplicate == record


@parametrize_sweep_records
def test_sweep_record_fields_and_order(cls, fields, values):
    assert cls._fields == fields
    record = cls(*values)
    assert tuple(record) == values
    assert record == cls(**dict(zip(fields, values)))
    assert isinstance(record, tuple)


@parametrize_sweep_records
def test_sweep_record_attributes_cannot_be_assigned(cls, fields, values):
    record = cls(*values)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert tuple(record) == values


def test_scenario_spec_equal_but_unhashable():
    assert default_scenario(cluster_sizes=(5,), seed=3) == SPEC
    assert default_scenario(cluster_sizes=(5,), seed=4) != SPEC
    with pytest.raises(TypeError):
        hash(SPEC)  # its ranges are dicts


def test_experiment_record_equal_and_hashable():
    copy = ExperimentRecord(*SWEEP_RECORD)
    assert copy == SWEEP_RECORD
    assert hash(copy) == hash(SWEEP_RECORD)


def test_scenario_spec_converts_its_values():
    spec = ScenarioSpec(
        cluster_sizes=[5.0],
        upload_ranges={"5": [10000, 20000]},
        download_ranges={5.0: (20000, 30000)},
        delay_bound=1,
        livestream_bandwidths=[10000],
        budgets=(20000,),
        seed=7.0,
    )
    assert tuple(spec) == ((5,), {5: (10000.0, 20000.0)}, {5: (20000.0, 30000.0)}, 1.0, (10000.0,), (20000.0,), 7)
    assert [type(v) for v in (spec.cluster_sizes[0], *spec.upload_ranges, spec.seed)] == [int, int, int]
    assert [type(v) for v in (*spec.upload_ranges[5], spec.delay_bound, *spec.budgets)] == [float] * 4


def test_scenario_spec_replace_and_make_check_the_new_values():
    spec = default_scenario()
    assert spec._replace(cluster_sizes=(5.0,)).cluster_sizes == (5,)
    assert type(spec._replace(seed=9)) is ScenarioSpec
    with pytest.raises(ValueError, match="whole number, got 5.7"):
        spec._replace(cluster_sizes=(5.7,))
    with pytest.raises(ValueError, match="whole number, got 1.5"):
        spec._replace(seed=1.5)
    with pytest.raises(TypeError):
        spec._replace(cluster_sizes=(True,))
    with pytest.raises(ValueError, match="^no upload/download range given for cluster size 7$"):
        spec._replace(cluster_sizes=(7,))
    with pytest.raises(ValueError, match="^cluster sizes must be >= 1, got 0$"):
        spec._replace(cluster_sizes=(0,))
    with pytest.raises(ValueError, match="^delay_bound must be positive and finite, got 0.0$"):
        spec._replace(delay_bound=0)
    with pytest.raises(ValueError, match="^budgets must be positive and finite"):
        spec._replace(budgets=(20000.0, math.nan))
    with pytest.raises(ValueError, match="^scenario needs at least one cluster size$"):
        ScenarioSpec._make([(), *tuple(spec)[1:]])


@pytest.mark.parametrize(
    "field,value", [("cluster_sizes", "5"), ("livestream_bandwidths", "12"), ("budgets", "99")]
)
def test_scenario_spec_refuses_a_string_where_a_sequence_belongs(field, value):
    # Read character by character, "12" would be the rates (1.0, 2.0).
    with pytest.raises(ValueError, match=f"^{field} must be a sequence of numbers, got '{value}'$"):
        default_scenario()._replace(**{field: value})


# Each sweep table column and the ExperimentRecord field that fills it.
RECORD_COLUMN_FIELDS = [
    ("N", "pool_size"), ("livestream_bps", "livestream_bandwidth"), ("BW_bps", "budget"),
    ("n_admitted", "n_admitted"), ("bw_bps", "allocated_bandwidth"), ("efficiency_pct", "efficiency_pct"),
]


def test_table_columns_line_up_with_record_fields():
    # The sweep table is written straight from the records, so column i is field i.
    columns, fields = RECORD_COLUMNS, ExperimentRecord._fields
    assert [(name, field) for (name, _), field in zip(columns, fields)] == RECORD_COLUMN_FIELDS
    assert len(columns) == len(fields)
    assert table_dicts(columns, [SWEEP_RECORD]) == [
        {name: getattr(SWEEP_RECORD, field) for name, field in RECORD_COLUMN_FIELDS}
    ]
