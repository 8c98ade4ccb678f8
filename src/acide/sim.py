"""Event-level simulation of the two-phase package distribution.

Replays an allocation plan as timed transfers: phase 1 sends block i from the
base station to peer i at the planned bandwidth, phase 2 circulates the
blocks between peers in n-1 barrier-synchronised steps. Event times are
computed in closed form rather than ticked, so traces are exact and cheap.
The trace is the ground truth for playback checks: a plan guarantees
continuous playback only if every peer holds the full package within the
delay bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

from acide.core import AllocationPlan, StreamParams
from acide.output import trace_document, write_json

BASE_STATION = "base-station"


@dataclass(frozen=True, slots=True)
class TransferEvent:
    """One timed transfer of a block; step is 0 for phase 1, 1..n-1 for phase 2."""

    phase: int
    step: int
    sender: str
    receiver: str
    block_index: int
    start_time: float
    end_time: float
    rate: float


@dataclass(frozen=True)
class SimulationTrace:
    plan: AllocationPlan
    events: tuple[TransferEvent, ...]
    completion_times: dict[str, float]
    makespan: float


@dataclass(frozen=True)
class PlaybackReport:
    """Continuous iff every peer completes within the delay bound.

    worst_peer is the last peer to hold the full package; overshoot is its
    completion time minus the delay bound (negative when there is slack).
    """

    continuous: bool
    makespan: float
    delay_bound: float
    worst_peer: str
    overshoot: float


def build_schedule(n: int) -> list[tuple[int, int, int]]:
    """Phase-2 exchange schedule for n peers as (step, sender, receiver) triples.

    Positions are 1-based ranks in the upload-sorted cluster. At step t,
    position i sends its block to position ((i - 1 + t) mod n) + 1: a cyclic
    shift, so every step is a perfect matching with no self-sends, each peer
    uploads once and downloads once per step, and over the n-1 steps every
    ordered pair occurs exactly once. Empty for n = 1.
    """
    if n < 1:
        raise ValueError(f"cluster size must be >= 1, got {n}")
    schedule = []
    for step in range(1, n):
        for sender in range(1, n + 1):
            receiver = (sender - 1 + step) % n + 1
            schedule.append((step, sender, receiver))
    return schedule


def simulate(plan: AllocationPlan) -> SimulationTrace:
    """Replay a plan into a timed transfer trace.

    Phase-1 transfer i runs [0, s_i/bw_i]; phase 2 starts once the last of
    them finishes. Each phase-2 step lasts as long as its slowest transfer
    (block i always moves at its owner's upload rate), and the next step
    starts only at that barrier. Per-peer completion times are taken from
    the events, so a plan that violates its own timing shows up here as a
    makespan past the delay bound rather than as an error.
    """
    n = len(plan.peers)
    if n == 0:
        raise ValueError("cannot simulate an empty plan")
    if len(plan.block_sizes) != n or len(plan.peer_bandwidths) != n:
        raise ValueError(
            f"plan is inconsistent: {n} peers, {len(plan.block_sizes)} block sizes, "
            f"{len(plan.peer_bandwidths)} bandwidths"
        )
    for peer, size, rate in zip(plan.peers, plan.block_sizes, plan.peer_bandwidths):
        if size <= 0 or rate <= 0 or peer.upload <= 0:
            raise ValueError(f"non-positive size or rate for peer {peer.id}")

    events: list[TransferEvent] = []
    for i, (peer, size, rate) in enumerate(zip(plan.peers, plan.block_sizes, plan.peer_bandwidths)):
        events.append(
            TransferEvent(
                phase=1,
                step=0,
                sender=BASE_STATION,
                receiver=peer.id,
                block_index=i + 1,
                start_time=0.0,
                end_time=size / rate,
                rate=rate,
            )
        )
    phase2_start = max(e.end_time for e in events)

    if n > 1:
        durations = [s / p.upload for s, p in zip(plan.block_sizes, plan.peers)]
        step_length = max(durations)
        for step, sender, receiver in build_schedule(n):
            start = phase2_start + (step - 1) * step_length
            events.append(
                TransferEvent(
                    phase=2,
                    step=step,
                    sender=plan.peers[sender - 1].id,
                    receiver=plan.peers[receiver - 1].id,
                    block_index=sender,
                    start_time=start,
                    end_time=start + durations[sender - 1],
                    rate=plan.peers[sender - 1].upload,
                )
            )

    completion: dict[str, float] = {}
    for event in events:
        current = completion.get(event.receiver)
        if current is None or event.end_time > current:
            completion[event.receiver] = event.end_time
    makespan = max(completion.values())
    return SimulationTrace(
        plan=plan,
        events=tuple(events),
        completion_times=completion,
        makespan=makespan,
    )


def playback_check(trace: SimulationTrace, params: StreamParams) -> PlaybackReport:
    """Decide whether the trace keeps playback continuous on every peer."""
    bound = params.delay_bound
    worst_peer, worst_time = max(trace.completion_times.items(), key=lambda kv: (kv[1], kv[0]))
    # Tolerate float noise: an optimal plan lands exactly on the bound.
    continuous = worst_time <= bound * (1 + 1e-9) + 1e-12
    return PlaybackReport(
        continuous=continuous,
        makespan=trace.makespan,
        delay_bound=bound,
        worst_peer=worst_peer,
        overshoot=worst_time - bound,
    )


def write_trace_json(trace: SimulationTrace, fp: IO[str]) -> None:
    """Write the trace as its JSON document (acide.output.trace_document)."""
    write_json(fp, trace_document(trace))
