"""FPGA fabric model: resources, reconfigurable slots, ICAP, AXI-stream.

The model is sized after the Xilinx Alveo U280 used by the Hyperion
prototype (paper Figure 1): HBM + DDR4, a static shell region, and a set of
dynamically reconfigurable slots multiplexed via the Internal Configuration
Access Port (ICAP) at 10-100 ms timescales (paper §2).
"""

from repro.hw.fpga.fabric import (
    ALVEO_U280,
    Fabric,
    FabricResources,
    MemoryBank,
    ReconfigurableSlot,
)
from repro.hw.fpga.bitstream import Bitstream, BitstreamAuthority, SignedBitstream
from repro.hw.fpga.icap import Icap
from repro.hw.fpga.axi import AxiStreamInterconnect, AddressRange

__all__ = [
    "ALVEO_U280",
    "Fabric",
    "FabricResources",
    "MemoryBank",
    "ReconfigurableSlot",
    "Bitstream",
    "SignedBitstream",
    "BitstreamAuthority",
    "Icap",
    "AxiStreamInterconnect",
    "AddressRange",
]
