"""ICAP: the Internal Configuration Access Port for partial reconfiguration.

Paper §2: Hyperion programs slots "leveraging Partial Dynamic
Reconfiguration through the Internal Configuration Access Port (ICAP)", and
FPGAs "excel in coarse-grained spatial multiplexing with longer time-scales
(10-100 msecs, partial reconfiguration)". The ICAP is a single shared port:
reconfigurations serialize, and the latency is bitstream-size / ICAP
bandwidth plus a fixed setup cost — which lands typical partial bitstreams
squarely in the paper's 10-100 ms band.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim import Resource, Simulator
from repro.hw.fpga.bitstream import Bitstream
from repro.hw.fpga.fabric import ReconfigurableSlot

#: ICAPE3 on UltraScale+: 32-bit wide at 200 MHz -> 0.8 GB/s.
ICAP_BANDWIDTH = 0.8e9
#: Frame setup, device sync words, and CRC check overhead.
ICAP_SETUP_LATENCY = 2e-3


class Icap:
    """The (single) configuration port; reconfigurations serialize here."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._port = Resource(sim)
        #: Configuration time of every completed reconfiguration, in order.
        self.history: List[float] = []
        self._metrics = sim.telemetry.unique_scope("fpga.icap")
        self._loads = self._metrics.counter("loads")
        self._reconfig_latency = self._metrics.histogram("reconfig_latency")

    def reconfiguration_latency(self, bitstream: Bitstream) -> float:
        """Pure configuration time for one bitstream (no queueing)."""
        return ICAP_SETUP_LATENCY + bitstream.size_bytes / ICAP_BANDWIDTH

    def load(
        self,
        slot: ReconfigurableSlot,
        bitstream: Bitstream,
        tenant: Optional[str] = None,
    ):
        """Process: evict the slot's current image (if any) and load a new one.

        Yields until the ICAP is free and configuration frames are written.
        Returns the wall-clock latency experienced (queueing included).
        """
        requested_at = self.sim.now
        with self.sim.tracer.span(
            "fpga.icap.load", "fpga",
            slot=slot.index, bitstream=bitstream.name,
        ):
            yield self._port.request()
            try:
                if slot.occupied:
                    slot.unload()
                config_time = self.reconfiguration_latency(bitstream)
                yield self.sim.timeout(config_time)
                slot.load(bitstream, tenant)
                self.history.append(config_time)
            finally:
                self._port.release()
        self._loads.inc()
        self._reconfig_latency.observe(self.sim.now - requested_at)
        return self.sim.now - requested_at
