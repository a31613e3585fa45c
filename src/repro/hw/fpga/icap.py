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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.faults import FaultInjector, FaultKind
from repro.sim import Resource, Simulator
from repro.hw.fpga.bitstream import Bitstream
from repro.hw.fpga.fabric import Fabric, ReconfigurableSlot

#: ICAPE3 on UltraScale+: 32-bit wide at 200 MHz -> 0.8 GB/s.
ICAP_BANDWIDTH = 0.8e9
#: Frame setup, device sync words, and CRC check overhead.
ICAP_SETUP_LATENCY = 2e-3


@dataclass
class ReconfigurationRecord:
    """One completed partial reconfiguration, for the E7 bench."""

    slot_index: int
    bitstream_name: str
    started_at: float
    latency: float


class Icap:
    """The (single) configuration port; reconfigurations serialize here."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = ICAP_BANDWIDTH,
        setup_latency: float = ICAP_SETUP_LATENCY,
    ):
        self.sim = sim
        self.bandwidth = bandwidth
        self.setup_latency = setup_latency
        self._port = Resource(sim, capacity=1)
        self.history: List[ReconfigurationRecord] = []
        self._metrics = sim.telemetry.unique_scope("fpga.icap")
        self._loads = self._metrics.counter("loads")
        self._scrubs = self._metrics.counter("scrubs")
        self._reconfig_latency = self._metrics.histogram("reconfig_latency")

    @property
    def scrubs(self) -> int:
        return self._scrubs.value

    def reconfiguration_latency(self, bitstream: Bitstream) -> float:
        """Pure configuration time for one bitstream (no queueing)."""
        return self.setup_latency + bitstream.size_bytes / self.bandwidth

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
                started_at = self.sim.now
                if slot.occupied:
                    slot.unload()
                config_time = self.reconfiguration_latency(bitstream)
                yield self.sim.timeout(config_time)
                slot.load(bitstream, tenant)
                self.history.append(
                    ReconfigurationRecord(
                        slot.index, bitstream.name, started_at, config_time
                    )
                )
            finally:
                self._port.release()
        self._loads.inc()
        self._reconfig_latency.observe(self.sim.now - requested_at)
        return self.sim.now - requested_at

    def scrub(self, slot: ReconfigurableSlot):
        """Process: repair an SEU-hit slot by rewriting its own bitstream.

        This is a full partial reconfiguration of the same image through the
        same serialized port, so it costs exactly the ICAP latency model —
        the recovery the paper's "self-hosting" claim needs with no CPU to
        reprogram the device.
        """
        if not slot.occupied:
            raise ConfigurationError(f"slot {slot.index} is empty; nothing to scrub")
        bitstream, tenant = slot.loaded, slot.tenant
        latency = yield from self.load(slot, bitstream, tenant)
        self._scrubs.inc()
        return latency


class ConfigScrubber:
    """Polls for injected SEUs and repairs hit slots through the ICAP.

    Consults component id ``<component>.slot<i>`` with :data:`FaultKind.SEU`
    for each occupied slot. The loop ends once the plan has no pending SEU
    specs, so a finished fault plan never keeps the simulation alive.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        icap: Icap,
        injector: FaultInjector,
        component: str = "fabric",
        poll_interval: float = 1e-3,
    ):
        self.sim = sim
        self.fabric = fabric
        self.icap = icap
        self.injector = injector
        self.component = component
        self.poll_interval = poll_interval
        #: (slot index, repair completion time, scrub latency) per repair.
        self.repairs: List[Tuple[int, float, float]] = []
        sim.spawn(self._run())

    def _slot_component(self, slot: ReconfigurableSlot) -> str:
        return f"{self.component}.slot{slot.index}"

    def _pending(self) -> bool:
        return any(
            self.injector.pending(self._slot_component(slot), FaultKind.SEU)
            for slot in self.fabric.slots
        )

    def _run(self):
        while self._pending():
            yield self.sim.timeout(self.poll_interval)
            for slot in self.fabric.slots:
                if not slot.occupied:
                    continue
                if self.injector.fires(self._slot_component(slot), FaultKind.SEU):
                    slot.take_seu()
                    latency = yield from self.icap.scrub(slot)
                    self.repairs.append((slot.index, self.sim.now, latency))
