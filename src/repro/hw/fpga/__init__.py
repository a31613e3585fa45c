"""FPGA fabric model: resources, reconfigurable slots, ICAP, AXI-stream.

The model is sized after the Xilinx Alveo U280 used by the Hyperion
prototype (paper Figure 1): HBM + DDR4, a static shell region, and a set of
dynamically reconfigurable slots multiplexed via the Internal Configuration
Access Port (ICAP) at 10-100 ms timescales (paper §2).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "resources": ("ALVEO_U280", "FabricResources"),
    "fabric": ("Fabric", "MemoryBank", "ReconfigurableSlot"),
    "bitstream": ("Bitstream", "BitstreamAuthority", "SignedBitstream"),
    "icap": ("Icap",),
    "axi": ("AxiStreamInterconnect", "AddressRange"),
})
