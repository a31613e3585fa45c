"""Test-only reference pipeline: the oracle for ``HardwarePipeline.execute``.

This is the ``execute`` the pipeline had while its input port was a
:class:`~repro.sim.Resource`: request the port, hold it for one
initiation interval, release it, sleep the remaining stages — three
engine entries per input — kept verbatim so the busy-until arithmetic
that replaced it can be compared against an implementation that queues
callers in the engine rather than on the clock. Nothing under ``src/``
imports it.
"""

from __future__ import annotations

from repro.hdl.engine import HardwarePipeline
from repro.sim import Resource


class ReferencePipeline(HardwarePipeline):
    """Same constructor and result as :class:`HardwarePipeline`."""

    def __init__(self, sim, compiled, maps=None):
        super().__init__(sim, compiled, maps=maps)
        self._input_port = Resource(sim)

    def execute(self, context: bytes = b""):
        yield self._input_port.request()
        try:
            # The port is busy for II cycles per input...
            yield self.sim.timeout(self.accept_interval)
        finally:
            self._input_port.release()
        # ...then the input drains through the remaining stages.
        remaining = max(0.0, self.latency - self.accept_interval)
        yield self.sim.timeout(remaining)
        return self._vm.run(context)
