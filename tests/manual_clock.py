"""A hand-stepped clock for unit tests that run without a simulator.

Anything exposing a ``now`` attribute works as a clock (fault
injectors, tracers, samplers, flight recorders); a
:class:`repro.sim.Simulator` is one. This one moves only when a test
advances it.
"""


class ManualClock:
    """A hand-advanced clock for testing plans without a simulator."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError("clock cannot run backwards")
        self.now += delta
        return self.now
