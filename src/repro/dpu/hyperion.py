"""The composed Hyperion DPU and its standalone boot sequence.

Hardware inventory per the prototype (paper Figure 1/2): an Alveo U280
fabric carved into eHDL slots, two 100 GbE ports, a PCIe root complex *on
the FPGA* with an x16 bifurcated into four x4 bridges, four NVMe SSDs, and
the AXI address split that fuses FPGA DRAM and NVMe BARs into the
single-level segment store of §2.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.hw.fpga.axi import AddressRange, AxiStreamInterconnect
from repro.hw.fpga.fabric import Fabric
from repro.hw.fpga.icap import Icap
from repro.hw.net.switch import Network
from repro.hw.nvme.controller import NvmeController, NvmeQueuePair
from repro.hw.nvme.namespace import Namespace
from repro.hw.pcie.device import PcieBridge
from repro.hw.pcie.link import PcieLink
from repro.hw.pcie.root import RootComplex
from repro.memory.backends import DramBackend, NvmeBackend
from repro.memory.store import (
    DRAM_WINDOW_BASE,
    HBM_WINDOW_BASE,
    NVME_WINDOW_BASE,
    SingleLevelStore,
)
from repro.power.energy import HYPERION_POWER, total_tdp
from repro.sim import Simulator

#: FPGA configuration + JTAG self-test at power-on (paper §2: "the DPU
#: boots in a stand-alone mode without any CPU when power is applied and
#: FPGA JTAG self-tests are passed").
JTAG_SELF_TEST_LATENCY = 120e-3
SHELL_CONFIG_LATENCY = 40e-3


@dataclass
class BootReport:
    """What standalone bring-up found and how long it took."""

    jtag_ok: bool = False
    enumerated_ssds: List[str] = field(default_factory=list)
    recovered_segments: int = 0
    boot_time: float = 0.0


class HyperionDpu:
    """One self-hosting, CPU-free DPU attached to a network."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str = "hyperion",
        num_slots: int = 5,
        num_ssds: int = 4,
        ssd_blocks: int = 262_144,  # 1 GiB per SSD at 4 KiB blocks
        dram_capacity: int = 256 * 1024 * 1024,
    ):
        if num_ssds < 1:
            raise ConfigurationError("Hyperion needs at least one SSD")
        self.sim = sim
        self.address = address
        # -- fabric + reconfiguration (slot counters land in the sim's
        # central registry rather than a standalone one)
        self.fabric = Fabric(
            num_slots=num_slots,
            metrics=sim.telemetry.unique_scope(f"{address}.fpga"),
        )
        self.icap = Icap(sim)
        # -- network: 2x QSFP28, modeled as two endpoints on the fabric
        network.endpoint(address)
        network.endpoint(f"{address}.qsfp1")
        # -- PCIe: FPGA-hosted root complex, x16 bifurcated to 4x x4
        self.root_complex = RootComplex(name=f"{address}-root")
        self.ssds: List[NvmeController] = []
        for i in range(num_ssds):
            bridge = PcieBridge(f"{address}-bridge-{i}")
            link = PcieLink(sim, lanes=4)
            ssd = NvmeController(sim, f"{address}-nvme-{i}", link=link)
            ssd.add_namespace(Namespace(1, ssd_blocks))
            bridge.attach(ssd)
            self.root_complex.add_root_port(bridge, PcieLink(sim, lanes=4))
            self.ssds.append(ssd)
        # -- memory system
        self.axi = AxiStreamInterconnect()
        self.dram_backend = DramBackend(sim, self.fabric.dram, dram_capacity)
        self.hbm_backend = DramBackend(
            sim, self.fabric.hbm, min(dram_capacity, self.fabric.hbm.capacity)
        )
        self._store_qp: Optional[NvmeQueuePair] = None
        self.store: Optional[SingleLevelStore] = None
        self._booted = False

    # -- bring-up ------------------------------------------------------------
    def boot(self, recover_store: bool = False):
        """Process: standalone boot — JTAG, enumeration, store mount."""
        if self._booted:
            raise ConfigurationError("already booted")
        report = BootReport()
        started = self.sim.now
        shell_up_at = started + JTAG_SELF_TEST_LATENCY
        shell_up_at += SHELL_CONFIG_LATENCY
        yield self.sim.timeout_at(shell_up_at)
        report.jtag_ok = True
        # PCIe enumeration by the on-fabric root complex.
        report.enumerated_ssds.extend(self.root_complex.enumerate())
        # Static AXI range split (paper §2.1).
        self.axi.add_range(
            AddressRange(DRAM_WINDOW_BASE, self.dram_backend.capacity,
                         self.dram_backend, "fpga-dram")
        )
        self.axi.add_range(
            AddressRange(HBM_WINDOW_BASE, self.hbm_backend.capacity,
                         self.hbm_backend, "fpga-hbm")
        )
        # Build the store over SSD 0.
        self._store_qp = self.ssds[0].create_queue_pair()
        nvme_backend = NvmeBackend(self.ssds[0], self._store_qp)
        self.axi.add_range(
            AddressRange(NVME_WINDOW_BASE, nvme_backend.capacity,
                         nvme_backend, "nvme-bar-window")
        )
        if recover_store:
            self.store = SingleLevelStore.recover(
                self.sim, self.dram_backend, nvme_backend, hbm=self.hbm_backend
            )
            report.recovered_segments = len(self.store.table)
        else:
            self.store = SingleLevelStore(
                self.sim, self.dram_backend, nvme_backend, hbm=self.hbm_backend
            )
        report.boot_time = self.sim.now - started
        self._booted = True
        return report

    # -- power loss ------------------------------------------------------------
    def power_cycle(self) -> "HyperionDpu":
        """Abrupt power loss: DRAM contents vanish; flash survives.

        Returns an un-booted twin sharing the same SSD objects, modeling
        the same physical device after power returns. Call
        ``boot(recover_store=True)`` on the twin.
        """
        twin = object.__new__(HyperionDpu)
        twin.__dict__.update(self.__dict__)
        twin.fabric = Fabric(
            num_slots=len(self.fabric.slots),
            metrics=self.sim.telemetry.unique_scope(f"{self.address}.fpga"),
        )
        twin.icap = Icap(self.sim)
        twin.root_complex = RootComplex(name=f"{self.address}-root-recovered")
        for i, ssd in enumerate(self.ssds):
            bridge = PcieBridge(f"{self.address}-bridge-{i}r")
            ssd.bus = None
            ssd.device = None
            bridge.attach(ssd)
            twin.root_complex.add_root_port(bridge, PcieLink(self.sim, lanes=4))
        twin.axi = AxiStreamInterconnect()
        twin.dram_backend = DramBackend(
            self.sim, self.fabric.dram, self.dram_backend.capacity
        )
        twin.hbm_backend = DramBackend(
            self.sim, self.fabric.hbm, self.hbm_backend.capacity
        )
        twin.store = None
        twin._store_qp = None
        twin._booted = False
        return twin

    # -- convenience -----------------------------------------------------------
    def require_booted(self) -> None:
        if not self._booted:
            raise ConfigurationError("DPU not booted")

    def inventory(self) -> Dict[str, object]:
        """Bill of materials, for the Figure 1 reproduction."""
        return {
            **self.fabric.inventory(),
            "qsfp_ports": 2,
            "network_gbps": 100,
            "nvme_ssds": len(self.ssds),
            "pcie_bridges": len(self.root_complex.root_ports),
            "pcie_lanes_per_bridge": 4,
            "tdp_watts": total_tdp(HYPERION_POWER),
        }
