"""Table 1: the state-of-the-art overview, regenerated.

The paper's Table 1 surveys six categories of pair-wise CPU-minimizing
integration and names the leg each is missing. We model every category as
a capability vector, derive the "missing" text from the vector (so the
table is computed, not transcribed), and add the Hyperion row the table
argues for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.eval.report import Table


@dataclass(frozen=True)
class IntegrationCategory:
    """One row of Table 1 as a capability vector."""

    name: str
    examples: str
    has_network: bool
    has_storage: bool
    has_compute: bool
    cpu_free_control: bool
    filesystem_support: bool

    def missing_legs(self) -> List[str]:
        missing = []
        if not self.has_network:
            missing.append("no network integration")
        if not self.has_storage:
            missing.append("no storage integration")
        if not self.has_compute:
            missing.append("no general compute")
        if not self.cpu_free_control:
            missing.append("CPU mediates control/translation")
        if self.has_storage and not self.filesystem_support:
            missing.append("block-level only, no file systems")
        return missing


def table1_categories() -> List[IntegrationCategory]:
    """The six surveyed categories plus Hyperion."""
    return [
        IntegrationCategory(
            "GPU-with-network", "GPUnet, GPUDirect RDMA",
            has_network=True, has_storage=False, has_compute=True,
            cpu_free_control=False, filesystem_support=False,
        ),
        IntegrationCategory(
            "GPU-with-storage", "SPIN, GPUfs, BaM, Donard",
            has_network=False, has_storage=True, has_compute=True,
            cpu_free_control=False, filesystem_support=False,
        ),
        IntegrationCategory(
            "FPGA/SoC-with-network", "hXDP, Catapult, NICA, FlexDriver",
            has_network=True, has_storage=False, has_compute=True,
            cpu_free_control=False, filesystem_support=False,
        ),
        IntegrationCategory(
            "Storage-with-network", "ReFlex, NVMe-oF, i10",
            has_network=True, has_storage=True, has_compute=False,
            cpu_free_control=False, filesystem_support=False,
        ),
        IntegrationCategory(
            "Storage-with-accelerator", "INSIDER, Willow, Biscuit, Summarizer",
            has_network=False, has_storage=True, has_compute=True,
            cpu_free_control=False, filesystem_support=False,
        ),
        IntegrationCategory(
            "Commercial DPUs", "BlueField, Fungible F1, Pensando",
            has_network=True, has_storage=True, has_compute=True,
            cpu_free_control=False,  # designed around embedded CPU cores
            filesystem_support=False,
        ),
        IntegrationCategory(
            "Hyperion (this work)", "unified FPGA + 100GbE + NVMe",
            has_network=True, has_storage=True, has_compute=True,
            cpu_free_control=True, filesystem_support=True,
        ),
    ]


def run_table1() -> Table:
    table = Table(
        "Table 1: CPU involvement in state-of-the-art accelerator integration",
        ["category", "examples", "net", "storage", "compute",
         "CPU-free", "missing"],
    )
    for category in table1_categories():
        missing = "; ".join(category.missing_legs()) or "-"
        table.add_row(
            category.name,
            category.examples,
            category.has_network,
            category.has_storage,
            category.has_compute,
            category.cpu_free_control,
            missing,
        )
    return table
