"""PCIe substrate: links, devices, bifurcation, and a root complex.

The defining trick of Hyperion (paper §2) is that the PCIe *root complex*
runs on the FPGA itself — "all access to the storage is funneled through the
FPGA" — so NVMe SSDs attach to the DPU with no host CPU anywhere. The model
implements enumeration, BAR assignment, x16 bifurcation into four x4 bridge
cores (Figure 2), and transfer timing.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "link": ("PcieLink", "PCIE_GEN3_PER_LANE"),
    "device": ("PcieDevice", "PcieBridge", "Bar"),
    "root": ("RootComplex",),
})
