"""PCIe substrate: links, devices, bifurcation, and a root complex.

The defining trick of Hyperion (paper §2) is that the PCIe *root complex*
runs on the FPGA itself — "all access to the storage is funneled through the
FPGA" — so NVMe SSDs attach to the DPU with no host CPU anywhere. The model
implements enumeration, BAR assignment, x16 bifurcation into four x4 bridge
cores (Figure 2), and transfer timing.
"""

from repro.hw.pcie.link import PcieLink, PCIE_GEN3_PER_LANE
from repro.hw.pcie.device import PcieDevice, PcieBridge, Bar
from repro.hw.pcie.root import RootComplex, EnumeratedDevice

__all__ = [
    "PcieLink",
    "PCIE_GEN3_PER_LANE",
    "PcieDevice",
    "PcieBridge",
    "Bar",
    "RootComplex",
    "EnumeratedDevice",
]
