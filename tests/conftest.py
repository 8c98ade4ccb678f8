"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest


@pytest.fixture
def event_reads(monkeypatch):
    """The row count of each read of SimulationTrace.events, appended as the test runs."""
    from acide.sim import SimulationTrace

    reads = []
    events = SimulationTrace.events

    def counted(trace):
        rows = events.fget(trace)
        reads.append(len(rows))
        return rows

    monkeypatch.setattr(SimulationTrace, "events", property(counted))
    return reads
