"""Property tests: the bandwidths a peer accepts, bisected admission and its
candidate rule, the canonical upload sum, one answer for a pool in any
order, closed-form block sizes, the closed-form simulation and the CSV peer
reader against oracles, the plan rule on every plan min_bandwidth returns,
and a plan for every cluster validate_cluster accepts.

Uploads span 1e-3 to 1e12 bps (1e-300 to 1e308 for the plan rule), pools
run from a single peer up, and some pools are built from a few repeated
values so that uploads tie. Examples are derandomised so the suite gives the
same verdict on every run.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acide.admission import AdmissionBudget, InsufficientBudgetError, join_cluster
from acide.cli import ParseInputError, load_peers_csv
from acide.core import (
    DUPLICATE_ID,
    UPLOAD_OVER_DOWNLOAD,
    ClusterRefused,
    PeerProfile,
    StreamParams,
    check_plan,
    min_bandwidth,
    requirement,
    sort_peers,
    upload_total,
    validate_cluster,
)
from acide.output import plan_document
from acide.sim import simulate
from oracles import (
    allocated_bandwidth,
    linear_suffix_scan,
    loop_allocated_bandwidth,
    reference_load_peers_csv,
    replay_simulation,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
DELAY = 0.2

bandwidths = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(upload=st.floats(), download=st.floats())
@example(upload=5e-324, download=1.7976931348623157e308)
@example(upload=-0.0, download=1.0)
def test_peer_accepts_exactly_positive_finite_bandwidths(upload, download):
    if all(math.isfinite(v) and v > 0 for v in (upload, download)):
        assert tuple(PeerProfile("a", upload, download)) == ("a", upload, download)
    else:
        with pytest.raises(ValueError, match="^peer a: bandwidths must be positive and finite, got "):
            PeerProfile("a", upload, download)


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


def assert_admits_like_a_linear_scan(pool, stream, data):
    ordered = sort_peers(pool)
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
@given(uploads=upload_lists, rate=bandwidths, data=st.data())
def test_join_cluster_admits_what_a_linear_scan_admits(uploads, rate, data):
    stream = StreamParams(package_size=rate * DELAY, delay_bound=DELAY)
    assert_admits_like_a_linear_scan(as_pool(uploads), stream, data)


# The per-peer rules of validate_cluster, which every admission candidate must keep.
PER_PEER_CODES = (DUPLICATE_ID, UPLOAD_OVER_DOWNLOAD)


@st.composite
def candidate_pools(draw):
    """Pools with downloads at or above uploads, into which a few faults may be injected:
    an id taken from another peer, or a download below the upload. A bad bandwidth
    cannot be injected: PeerProfile refuses it (test_peer_accepts_exactly_positive_finite_bandwidths)."""
    uploads = draw(upload_lists)
    pool = [PeerProfile(f"p{i:02d}", u, u * draw(st.floats(1.0, 4.0))) for i, u in enumerate(uploads)]
    for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=3)):
        if draw(st.sampled_from(["id", "under"])) == "id":
            pool[i] = pool[i]._replace(id=pool[draw(st.integers(0, len(pool) - 1))].id)
        else:
            pool[i] = pool[i]._replace(download=pool[i].upload * draw(st.floats(0.1, 0.99)))
    return tuple(pool)


@PROPERTY
@given(pool=candidate_pools(), rate=bandwidths, cap=bandwidths, data=st.data())
def test_admission_budget_refuses_exactly_the_per_peer_violations(pool, rate, cap, data):
    stream = StreamParams(package_size=rate * DELAY, delay_bound=DELAY)
    refused = tuple(v for v in validate_cluster(pool, stream).violations if v.code in PER_PEER_CODES)
    if refused:
        with pytest.raises(ClusterRefused) as err:
            AdmissionBudget(cap, pool, stream)
        assert err.value.violations == refused
        return
    assert_admits_like_a_linear_scan(pool, stream, data)


@PROPERTY
@given(uploads=uploads_of(200), rate=bandwidths, data=st.data())
def test_allocated_bandwidth_is_the_loop_sum_bit_for_bit(uploads, rate, data):
    ordered = sort_peers(as_pool(uploads))
    stream = StreamParams(package_size=rate * DELAY, delay_bound=DELAY)
    suffix = ordered[data.draw(st.integers(0, len(ordered) - 1)) :]
    priced = requirement(len(suffix), upload_total(p.upload for p in suffix), stream)
    assert priced.hex() == loop_allocated_bandwidth(suffix, stream).hex()


@st.composite
def pools_with_rates(draw):
    """A candidate pool and a stream rate, often exactly its mean upload or its download
    total as summed in the pool's own order, which a sum in another order may cross."""
    pool = draw(candidate_pools())
    sums = [upload_total(p.upload for p in pool) / len(pool), upload_total(p.download for p in pool)]
    return pool, draw(st.sampled_from(sums) | bandwidths)


def exact(value):
    """value with every float spelled by float.hex, so that equal means equal bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    return value


def answers(pool, stream, cap):
    """The plan min_bandwidth makes, the validate_cluster codes and the join_cluster outcome,
    or each refusal: by its codes for ClusterRefused, whose message lists peers in input order."""
    try:
        plan = exact(min_bandwidth(pool, stream))
    except ValueError as exc:
        plan = str(exc)
    codes = [v.code for v in validate_cluster(pool, stream).violations]
    try:
        outcome = exact(join_cluster(AdmissionBudget(cap, pool, stream)))
    except ClusterRefused as exc:
        outcome = [v.code for v in exc.violations]
    except ValueError as exc:
        outcome = str(exc)
    return plan, codes, outcome


@PROPERTY
@given(case=pools_with_rates(), order=st.permutations(range(12)), cap_share=st.floats(1.0, 4.0))
@example(
    # Summed descending, these uploads' mean is one ulp below the stream rate.
    case=((PeerProfile("a", 0.1, 1.0), PeerProfile("b", 0.2, 1.0), PeerProfile("c", 0.3, 1.0)), 0.20000000000000004),
    order=list(range(11, -1, -1)),
    cap_share=1.0,
)
def test_a_pool_gets_one_answer_in_any_order(case, order, cap_share):
    pool, rate = case
    stream = StreamParams(package_size=rate, delay_bound=1.0)
    permuted = [pool[i] for i in order if i < len(pool)]
    assert answers(permuted, stream, rate * cap_share) == answers(pool, stream, rate * cap_share)


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


# Log-uniform over the whole positive float range, as far as 10.0 ** e stays finite.
wide_bandwidths = st.floats(min_value=-300.0, max_value=308.0).map(lambda e: 10.0**e)


@st.composite
def wide_pools(draw):
    """1..12 peers with uploads log-uniform over [1e-300, 1e308] and each download at or above its upload."""
    uploads = draw(st.lists(wide_bandwidths, min_size=1, max_size=12))
    downloads = [draw(st.floats(min_value=u, max_value=1.7e308)) for u in uploads]
    return [PeerProfile(f"p{i:02d}", u, d) for i, (u, d) in enumerate(zip(uploads, downloads))]


@PROPERTY
@given(pool=wide_pools(), rate=wide_bandwidths)
@example(pool=[PeerProfile("a", 1e308, 1.5e308), PeerProfile("b", 1.2e308, 1.6e308)], rate=10000.0)
@example(pool=[PeerProfile("a", 1e-300, 1e301), PeerProfile("b", 1e300, 1e301)], rate=10000.0)
def test_min_bandwidth_returns_only_plans_that_divide_the_package(pool, rate):
    try:
        plan = min_bandwidth(pool, StreamParams(package_size=rate * DELAY, delay_bound=DELAY))
    except ValueError:
        return
    check_plan(plan)
    json.dumps(plan_document(plan), allow_nan=False)


@PROPERTY
@given(uploads=upload_lists, spread=st.floats(min_value=1.0, max_value=4.0), share=st.floats(min_value=1e-6, max_value=1.0))
@example(uploads=[5e4, 5e4], spread=1.0, share=1.0)
def test_min_bandwidth_plans_every_cluster_validate_cluster_accepts(uploads, spread, share):
    # Uploads up to 1e12 bps keep (n-1)*S and S*u finite. A rate at most the
    # mean upload leaves phase 1 at least T/n, so no accepted cluster is infeasible.
    pool = [PeerProfile(f"p{i:02d}", u, max(uploads) * spread) for i, u in enumerate(uploads)]
    rate = upload_total(uploads) / len(uploads) * share
    stream = StreamParams(package_size=rate * DELAY, delay_bound=DELAY)
    assume(validate_cluster(pool, stream).ok)
    plan = min_bandwidth(pool, stream)
    assert plan.phase1_time > 0
