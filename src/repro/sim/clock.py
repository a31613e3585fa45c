"""Clock sources for anything scheduled against simulated time.

Fault plans, telemetry spans, and every substrate model run strictly
against *simulated* time — never the wall clock — so runs are
reproducible. Any object exposing a ``now`` attribute works as a clock;
:class:`repro.sim.Simulator` already does. :class:`ManualClock` exists
for unit tests that want to step time by hand; :class:`SimClock` adapts
a simulator into a read-only clock. (``repro.faults`` re-exports both.)
"""

from __future__ import annotations

__all__ = ["ManualClock", "SimClock"]


class ManualClock:
    """A hand-advanced clock for testing plans without a simulator."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError("clock cannot run backwards")
        self.now += delta
        return self.now


class SimClock:
    """Adapter exposing a simulator's current time as a read-only clock."""

    def __init__(self, sim) -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now
