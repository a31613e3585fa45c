"""PCIe link timing: lane width, generation, and TLP overhead."""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ConfigurationError
from repro.faults import FaultInjector, FaultKind
from repro.sim import Resource, Simulator

#: Effective per-lane payload bandwidth (bytes/s) after 128b/130b encoding
#: and protocol overhead, per generation.
PCIE_GEN3_PER_LANE = 0.985e9
PCIE_GEN4_PER_LANE = 1.97e9

#: Transaction-layer packet header + DLLP overhead amortized per TLP, and
#: the max payload per TLP.
TLP_OVERHEAD_BYTES = 26
TLP_MAX_PAYLOAD = 256

#: One-way latency through a PCIe link + switch logic.
PCIE_HOP_LATENCY = 250e-9

#: A transient completion timeout: the requester waits out the completion
#: timer, then replays the TLP (spec timers are 50 us - 50 ms; we charge
#: the low end, modeling a single retrained retry).
COMPLETION_TIMEOUT_PENALTY = 50e-6


class PcieLink:
    """A bidirectional PCIe link of ``lanes`` width.

    ``transfer`` charges serialization (with per-TLP overhead) plus a fixed
    hop latency; concurrent transfers serialize on the link.
    """

    def __init__(
        self,
        sim: Simulator,
        lanes: int = 4,
        component: str = "pcie-link",
    ):
        if lanes not in (1, 2, 4, 8, 16):
            raise ConfigurationError(f"invalid PCIe lane width: {lanes}")
        self.sim = sim
        self.lanes = lanes
        self.bandwidth = lanes * PCIE_GEN3_PER_LANE
        self._channel = Resource(sim, capacity=1)
        self.injector: Optional[FaultInjector] = None
        self.component = component
        self._metrics = sim.telemetry.unique_scope(component)
        self._bytes_transferred = self._metrics.counter("bytes_transferred")
        self._completion_timeouts = self._metrics.counter("completion_timeouts")

    def attach_faults(self, injector: FaultInjector, component: str) -> "PcieLink":
        self.injector = injector
        self.component = component
        self._metrics.rename(component)
        return self

    def wire_bytes(self, payload_bytes: int) -> int:
        """Payload plus amortized TLP overhead."""
        if payload_bytes <= 0:
            return TLP_OVERHEAD_BYTES
        tlps = (payload_bytes + TLP_MAX_PAYLOAD - 1) // TLP_MAX_PAYLOAD
        return payload_bytes + tlps * TLP_OVERHEAD_BYTES

    def transfer_latency(self, payload_bytes: int) -> float:
        return PCIE_HOP_LATENCY + self.wire_bytes(payload_bytes) / self.bandwidth

    def transfer(self, payload_bytes: int):
        """Process: move ``payload_bytes`` across the link.

        A COMPLETION_TIMEOUT fault is transient: the requester waits out
        the completion timer and replays, so the transfer still succeeds
        but pays the penalty — visible as tail latency, not data loss.
        """
        with self.sim.tracer.span(
            "pcie.transfer", "pcie",
            component=self.component, bytes=payload_bytes,
        ):
            yield self._channel.request()
            try:
                if self.injector is not None and self.injector.fires(
                    self.component, FaultKind.COMPLETION_TIMEOUT
                ):
                    self._completion_timeouts.inc()
                    yield self.sim.timeout(COMPLETION_TIMEOUT_PENALTY)
                yield self.sim.timeout(self.transfer_latency(payload_bytes))
                self._bytes_transferred.inc(payload_bytes)
            finally:
                self._channel.release()
