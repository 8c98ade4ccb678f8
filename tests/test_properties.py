"""Property tests: bisected admission, the canonical upload sum, closed-form
block sizes, the closed-form simulation and the CSV peer reader against
oracles.

Uploads span 1e-3 to 1e12 bps, pools run from a single peer up, and some
pools are built from a few repeated values so that uploads tie. Examples are
derandomised so the suite gives the same verdict on every run.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acide.admission import AdmissionBudget, InsufficientBudgetError, join_cluster
from acide.cli import ParseInputError, load_peers_csv
from acide.core import PeerProfile, StreamParams, allocated_bandwidth, min_bandwidth, sort_peers
from acide.sim import simulate
from oracles import (
    linear_suffix_scan,
    loop_allocated_bandwidth,
    reference_load_peers_csv,
    replay_simulation,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
DELAY = 0.2

bandwidths = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False)


def uploads_of(max_size: int):
    """Upload lists of 1..max_size values, some drawn from a few values so they tie."""
    return st.one_of(
        st.lists(bandwidths, min_size=1, max_size=max_size),
        st.lists(bandwidths, min_size=1, max_size=3).flatmap(
            lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=max_size)
        ),
    )


upload_lists = uploads_of(12)


def as_pool(uploads: list[float]) -> tuple[PeerProfile, ...]:
    return tuple(PeerProfile(f"p{i:02d}", u, u) for i, u in enumerate(uploads))


@st.composite
def boundary_budgets(draw, ordered, stream):
    """A suffix's exact cost, or one float step either side of it."""
    cost = allocated_bandwidth(ordered[draw(st.integers(0, len(ordered) - 1)) :], stream)
    if math.isinf(cost):
        cost = draw(bandwidths)
    return draw(st.sampled_from([cost, math.nextafter(cost, 0.0), math.nextafter(cost, math.inf)]))


@PROPERTY
@given(uploads=upload_lists, rate=bandwidths, data=st.data())
def test_join_cluster_admits_what_a_linear_scan_admits(uploads, rate, data):
    pool = as_pool(uploads)
    ordered = sort_peers(pool)
    stream = StreamParams(package_size=rate * DELAY, delay_bound=DELAY)
    cap = data.draw(st.one_of(boundary_budgets(ordered, stream), bandwidths))
    removed = linear_suffix_scan(ordered, stream, cap)
    budget = AdmissionBudget(cap, pool, stream)
    if removed == len(ordered):
        with pytest.raises(InsufficientBudgetError):
            join_cluster(budget)
        return
    outcome = join_cluster(budget)
    assert outcome.rejected == tuple(ordered[:removed])
    assert outcome.admitted == tuple(ordered[removed:])


@PROPERTY
@given(uploads=uploads_of(200), rate=bandwidths, data=st.data())
def test_allocated_bandwidth_is_the_loop_sum_bit_for_bit(uploads, rate, data):
    ordered = sort_peers(as_pool(uploads))
    stream = StreamParams(package_size=rate * DELAY, delay_bound=DELAY)
    suffix = ordered[data.draw(st.integers(0, len(ordered) - 1)) :]
    assert allocated_bandwidth(suffix, stream).hex() == loop_allocated_bandwidth(suffix, stream).hex()


def mostly(common, rare):
    """Draws from `rare` one time in ten, so that most files get past their first rows."""
    return st.sampled_from([common] * 9 + [rare]).flatmap(lambda strategy: strategy)


# CSV fields: bandwidths as repr or fixed text, and the spellings the reader
# must refuse or normalise the same way on both routes.
bandwidth_fields = mostly(
    st.one_of(bandwidths.map(repr), bandwidths.map(lambda v: f"{v:.3f}")),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "-1", "0", "-0", "1_000", " 5 ", "", "x", "0x1"]),
)
id_fields = mostly(
    st.text(alphabet="abcxyz019", min_size=1, max_size=4),
    st.sampled_from(["", " ", "  a ", "x,y", 'q"t', "id", "ID ", "\t"]),
)
csv_rows = mostly(
    st.tuples(id_fields, bandwidth_fields, bandwidth_fields).map(list),
    st.lists(st.one_of(id_fields, bandwidth_fields), max_size=4),
)


@PROPERTY
@given(rows=st.lists(csv_rows, max_size=8), header=st.booleans())
def test_csv_reader_matches_the_reference_reader(tmp_path_factory, rows, header):
    path = tmp_path_factory.getbasetemp() / "property-peers.csv"
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        if header:
            writer.writerow(["id", "u_bps", "d_bps"])
        writer.writerows(rows)
    results = []
    for reader in (load_peers_csv, reference_load_peers_csv):
        try:
            results.append((reader(str(path)), None))
        except ParseInputError as exc:
            results.append((None, str(exc)))
    assert results[0] == results[1]


@PROPERTY
@given(uploads=upload_lists, rate_share=st.floats(min_value=1e-3, max_value=1.0))
def test_block_sizes_match_exact_proportional_split(uploads, rate_share):
    # A stream no faster than the slowest upload is feasible for any cluster.
    stream = StreamParams(package_size=min(uploads) * rate_share * DELAY, delay_bound=DELAY)
    plan = min_bandwidth(as_pool(uploads), stream)
    exact_total = sum((Fraction(p.upload) for p in plan.peers), Fraction(0))
    for peer, size in zip(plan.peers, plan.block_sizes):
        want = Fraction(stream.package_size) * Fraction(peer.upload) / exact_total
        assert abs(Fraction(size) - want) <= want * Fraction(1, 10**9)


@PROPERTY
@given(
    uploads=uploads_of(60),
    rate_share=st.floats(min_value=1e-3, max_value=1.0),
    scale=st.one_of(st.none(), st.tuples(st.integers(0, 59), st.floats(min_value=0.5, max_value=2.0))),
)
@example(
    # Steps so short that the phase-2 start absorbs them: p13's latest arrival
    # comes one ulp after its step n-1 arrival, from an earlier step.
    uploads=[1.0, 1.0, 1.0, 44102676648.0, 222456980120.0, 248986609274.0, 272717367095.0, 1.0,
             1021038373.0, 1.0, 339570851841.0, 618139366616.0, 1e12, 1e12, 0.5],
    rate_share=0.001,
    scale=(0, 0.5),
)
def test_simulation_matches_the_event_replay(uploads, rate_share, scale):
    stream = StreamParams(package_size=min(uploads) * rate_share * DELAY, delay_bound=DELAY)
    plan = min_bandwidth(as_pool(uploads), stream)
    if scale is not None:
        # A plan off the optimum: one block scaled, so phase-2 transfers differ in length.
        index, factor = scale
        sizes = list(plan.block_sizes)
        sizes[index % len(sizes)] *= factor
        plan = plan._replace(block_sizes=tuple(sizes))
    events, completion, makespan = replay_simulation(plan)
    trace = simulate(plan)
    assert trace.completion_times == completion
    assert trace.makespan == makespan
    assert trace.events == events
