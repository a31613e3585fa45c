"""The root complex: enumeration and BAR address assignment.

On a conventional server the host CPU's firmware performs the "complex PCIe
enumerations" the paper calls out; in Hyperion the FPGA hosts the root
complex, so enumeration runs on the DPU at boot with no CPU involved.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.errors import ConfigurationError
from repro.hw.pcie.device import Bar, PcieBridge, PcieDevice
from repro.hw.pcie.link import PcieLink

#: Where the BAR window handed to devices starts.
MMIO_BASE = 0x4000_0000


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class RootComplex:
    """Walks the PCIe tree, numbers buses, and assigns BAR windows.

    The memory window handed to devices starts at :data:`MMIO_BASE`; the AXI
    interconnect later routes this window to the NVMe controllers (paper
    §2.1's "NVMe PCIe BAR addresses").
    """

    def __init__(self, name: str = "fpga-root-complex"):
        self.name = name
        self.root_ports: List[Tuple[PcieBridge, PcieLink]] = []
        self._next_bus = 0
        self._next_mmio = MMIO_BASE
        self._enumerated = False

    def add_root_port(self, bridge: PcieBridge, link: PcieLink) -> None:
        if self._enumerated:
            raise ConfigurationError("cannot add ports after enumeration")
        self.root_ports.append((bridge, link))

    # -- enumeration ---------------------------------------------------------
    def enumerate(self) -> List[str]:
        """Depth-first bus walk: number buses, then place BARs; returns
        each endpoint's bus:device.function."""
        if self._enumerated:
            raise ConfigurationError("already enumerated")
        self._enumerated = True
        found: List[str] = []
        for bridge, __ in self.root_ports:
            found.extend(self._walk_bridge(bridge))
        return found

    def _walk_bridge(self, bridge: PcieBridge) -> List[str]:
        bridge.bus = self._next_bus
        self._next_bus += 1
        found: List[str] = []
        device_number = 0
        for child in bridge.children:
            if isinstance(child, PcieBridge):
                found.extend(self._walk_bridge(child))
            elif isinstance(child, PcieDevice):
                child.bus = bridge.bus
                child.device = device_number
                device_number += 1
                for bar in child.bars:
                    self._place_bar(bar)
                found.append(child.bdf())
        return found

    def _place_bar(self, bar: Bar) -> None:
        base = _align_up(self._next_mmio, bar.size)
        bar.base = base
        self._next_mmio = base + bar.size
