"""NVMe substrate: flash timing, namespaces, controllers, queues.

Four off-the-shelf NVMe SSDs hang off the Hyperion FPGA through bifurcated
PCIe (paper Figure 2). The model stores real bytes (so file systems and data
formats above it round-trip) and charges realistic flash timing through
per-die queueing.
"""

from repro.hw.nvme.flash import FlashTiming, FlashArray
from repro.hw.nvme.commands import NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus
from repro.hw.nvme.controller import NvmeController, NvmeQueuePair
from repro.hw.nvme.namespace import Namespace, LBA_SIZE

__all__ = [
    "FlashTiming",
    "FlashArray",
    "NvmeCommand",
    "NvmeCompletion",
    "NvmeOpcode",
    "NvmeStatus",
    "NvmeController",
    "NvmeQueuePair",
    "Namespace",
    "LBA_SIZE",
]
