"""The reconfigurable fabric: resource budgets, slots, and memory banks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import CapacityError, ConfigurationError
from repro.common.units import GIB
from repro.hw.fpga.bitstream import Bitstream
from repro.hw.fpga.resources import ALVEO_U280, FabricResources
from repro.telemetry import MetricScope

__all__ = [
    "ALVEO_U280",
    "FabricResources",
    "MemoryBank",
    "ReconfigurableSlot",
    "Fabric",
    "u280_memory_banks",
]


@dataclass
class MemoryBank:
    """An on-card memory bank (DDR4 DRAM or HBM2 stack)."""

    name: str
    capacity: int
    bandwidth: float  # bytes/second
    access_latency: float  # seconds, closed-page random access

    def transfer_time(self, size: int) -> float:
        """Latency + serialization for one access of ``size`` bytes."""
        return self.access_latency + size / self.bandwidth


def u280_memory_banks() -> List[MemoryBank]:
    """The U280's two DDR4 DIMMs and 8 GiB of HBM2."""
    return [
        MemoryBank("ddr4-0", 16 * GIB, 19.2e9, 80e-9),
        MemoryBank("ddr4-1", 16 * GIB, 19.2e9, 80e-9),
        MemoryBank("hbm", 8 * GIB, 460e9, 120e-9),
    ]


@dataclass
class ReconfigurableSlot:
    """One partially-reconfigurable region, multiplexed between tenants.

    Paper §2.2: "slot-style spatial slicing of FPGA resources" — each slot
    has a fixed area budget and hosts at most one loaded bitstream.
    """

    index: int
    budget: FabricResources
    loaded: Optional[Bitstream] = None
    tenant: Optional[str] = None
    metrics: Optional[MetricScope] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.metrics is None:
            self.metrics = MetricScope.standalone(f"fpga.slot{self.index}")
        self._load_count = self.metrics.counter("load_count")

    @property
    def occupied(self) -> bool:
        return self.loaded is not None

    def can_host(self, bitstream: Bitstream) -> bool:
        return bitstream.resources.fits_within(self.budget)

    def load(self, bitstream: Bitstream, tenant: Optional[str] = None) -> None:
        if self.occupied:
            raise CapacityError(f"slot {self.index} already hosts {self.loaded.name}")
        if not self.can_host(bitstream):
            raise CapacityError(
                f"bitstream {bitstream.name} does not fit slot {self.index}"
            )
        self.loaded = bitstream
        self.tenant = tenant
        self._load_count.inc()

    def unload(self) -> Bitstream:
        if not self.occupied:
            raise ConfigurationError(f"slot {self.index} is empty")
        bitstream, self.loaded, self.tenant = self.loaded, None, None
        return bitstream


#: The share of the device the static shell reserves.
SHELL_FRACTION = 0.25


class Fabric:
    """A whole Alveo U280: a static shell plus N reconfigurable slots.

    The static shell (network MAC/MUX, PCIe bridges, runtime config engine —
    the fixed blocks in paper Figure 2) reserves :data:`SHELL_FRACTION` of
    the device; the rest is carved into equal slots.
    """

    def __init__(
        self,
        num_slots: int = 5,
        metrics: Optional[MetricScope] = None,
    ):
        if num_slots < 1:
            raise ConfigurationError("need at least one slot")
        # A fabric has no simulator of its own: slot counters live either
        # under an owner-provided scope (the DPU's central registry) or in
        # a private standalone one.
        self.metrics = metrics if metrics is not None else MetricScope.standalone("fpga")
        slot_budget = ALVEO_U280.scaled((1.0 - SHELL_FRACTION) / num_slots)
        self.slots = [
            ReconfigurableSlot(
                i, slot_budget, metrics=self.metrics.scope(f"slot{i}")
            )
            for i in range(num_slots)
        ]
        self.memory_banks = u280_memory_banks()

    @property
    def dram(self) -> MemoryBank:
        return self._bank("ddr4-0")

    @property
    def hbm(self) -> MemoryBank:
        return self._bank("hbm")

    def _bank(self, name: str) -> MemoryBank:
        for bank in self.memory_banks:
            if bank.name == name:
                return bank
        raise ConfigurationError(f"no memory bank named {name}")

    def free_slot(self) -> Optional[ReconfigurableSlot]:
        for slot in self.slots:
            if not slot.occupied:
                return slot
        return None

    def slot_for(self, bitstream_name: str) -> Optional[ReconfigurableSlot]:
        for slot in self.slots:
            if slot.loaded is not None and slot.loaded.name == bitstream_name:
                return slot
        return None

    def utilization(self) -> float:
        """Fraction of slots currently occupied."""
        occupied = sum(1 for slot in self.slots if slot.occupied)
        return occupied / len(self.slots)

    def inventory(self) -> Dict[str, object]:
        """Bill-of-materials summary used by the Figure 1/2 harness."""
        return {
            "device": "alveo-u280",
            "slots": len(self.slots),
            "luts": ALVEO_U280.luts,
            "brams": ALVEO_U280.brams,
            "urams": ALVEO_U280.urams,
            "dsps": ALVEO_U280.dsps,
            "memory_banks": [bank.name for bank in self.memory_banks],
            "dram_bytes": sum(
                bank.capacity for bank in self.memory_banks if "ddr" in bank.name
            ),
            "hbm_bytes": sum(
                bank.capacity for bank in self.memory_banks if bank.name == "hbm"
            ),
        }
