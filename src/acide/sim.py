"""Simulation of the two-phase package distribution.

Phase 1 sends block i from the base station to peer i at the planned
bandwidth; phase 2 circulates the blocks between peers in n-1
barrier-synchronised steps of a cyclic shift: step t sends the block of
position i (1-based, in upload order) to position ((i - 1 + t) mod n) + 1.
Completion times are a closed form: every peer's last block arrives in the
final step, from the next position around the ring. The timed transfer
events are built only when a trace's `events` is read, which writing a trace
does. A plan guarantees continuous playback only if every peer holds the
full package within the delay bound.
"""

from __future__ import annotations

from itertools import repeat
from typing import IO, NamedTuple

from acide.core import ABS_TOL, REL_TOL, AllocationPlan, StreamParams

BASE_STATION = "base-station"


def _timing(plan: AllocationPlan) -> tuple[list[float], float, list[float], float]:
    """Phase-1 end times, the phase-2 start, phase-2 durations per block, the step length."""
    phase1_ends = [size / rate for size, rate in zip(plan.block_sizes, plan.peer_bandwidths)]
    durations = [s / p.upload for s, p in zip(plan.block_sizes, plan.peers)]
    return phase1_ends, max(phase1_ends), durations, max(durations)


class SimulationTrace(NamedTuple):
    plan: AllocationPlan
    completion_times: dict[str, float]
    makespan: float

    @property
    def events(self) -> tuple[tuple, ...]:
        """Every transfer: phase 1 by block, then phase 2 by step and sender; n^2 in all.

        Each is a plain tuple in TRACE_COLUMNS order; step is 0 for phase 1, 1..n-1 for phase 2.
        Step t sends position i's block to position ((i - 1 + t) mod n) + 1, so its receivers
        are the ids rotated by t. Built afresh on each read, a step at a time.
        """
        plan = self.plan
        phase1_ends, phase2_start, durations, step_length = _timing(plan)
        ids = [peer.id for peer in plan.peers]
        uploads = [peer.upload for peer in plan.peers]
        blocks = range(1, len(ids) + 1)
        events = list(zip(repeat(1), repeat(0), repeat(BASE_STATION), ids, blocks,
                          repeat(0.0), phase1_ends, plan.peer_bandwidths))
        for step in range(1, len(ids)):
            start = phase2_start + (step - 1) * step_length
            events += zip(repeat(2), repeat(step), ids, ids[step:] + ids[:step], blocks,
                          repeat(start), [start + d for d in durations], uploads)
        return tuple(events)


class PlaybackReport(NamedTuple):
    """Continuous iff every peer completes within the delay bound.

    worst_peer is the last peer to hold the full package; overshoot is its
    completion time minus the delay bound (negative when there is slack).
    """

    continuous: bool
    worst_peer: str
    overshoot: float


def simulate(plan: AllocationPlan) -> SimulationTrace:
    """Time a plan's two-phase distribution and each peer's completion.

    Phase-1 transfer i runs [0, s_i/bw_i]; phase 2 starts once the last of
    them finishes. Each phase-2 step lasts as long as its slowest transfer
    (block i always moves at its owner's upload rate), and the next step
    starts only at that barrier. So a peer completes when its block from the
    next position around the ring arrives in step n-1: at
    t2 + (n-2)*L + s_{r+1}/u_{r+1}, with t2 the phase-2 start and L the step
    length. The result is the latest arrival in the floats the events carry:
    when steps are so short that t2 absorbs them, an earlier step's arrival
    can end later than the last one, and then it counts. A plan that violates
    its own timing shows up here as a makespan past the delay bound rather
    than as an error.
    """
    n = len(plan.peers)
    phase1_ends, phase2_start, durations, step_length = _timing(plan)
    if n == 1:
        completion = {plan.peers[0].id: phase1_ends[0]}
    else:
        # The start of step n-1, the same float the events give it.
        last_start = phase2_start + (n - 2) * step_length
        # Rounding is monotone, so no arrival before step n-1 ends after this
        # bound. Only a peer whose last arrival ends below it, which takes step
        # lengths near the resolution of the phase-2 start, needs its earlier
        # arrivals (from sender r - step in step `step`) checked too.
        bound = phase2_start + (n - 3) * step_length + step_length
        completion = {}
        for r, peer in enumerate(plan.peers):
            end = last_start + durations[(r + 1) % n]
            if end < bound:
                end = max([end, *(phase2_start + (step - 1) * step_length + durations[(r - step) % n]
                                  for step in range(1, n - 1))])
            completion[peer.id] = end
    return SimulationTrace(plan=plan, completion_times=completion, makespan=max(completion.values()))


def playback_check(trace: SimulationTrace, params: StreamParams) -> PlaybackReport:
    """Decide whether the trace keeps playback continuous on every peer."""
    bound = params.delay_bound
    worst_peer, worst_time = max(trace.completion_times.items(), key=lambda kv: (kv[1], kv[0]))
    # Tolerate float noise: an optimal plan lands exactly on the bound.
    continuous = worst_time <= bound * (1 + REL_TOL) + ABS_TOL
    return PlaybackReport(continuous=continuous, worst_peer=worst_peer, overshoot=worst_time - bound)


def write_trace_json(trace: SimulationTrace, fp: IO[str]) -> None:
    """Write the trace as its JSON document (acide.output.trace_document)."""
    from acide.output import trace_document, write_json

    write_json(fp, trace_document(trace))
