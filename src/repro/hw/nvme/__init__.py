"""NVMe substrate: flash timing, namespaces, controllers, queues.

Four off-the-shelf NVMe SSDs hang off the Hyperion FPGA through bifurcated
PCIe (paper Figure 2). The model stores real bytes (so file systems and data
formats above it round-trip) and charges realistic flash timing through
per-die queueing.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "flash": ("FlashTiming", "FlashArray"),
    "commands": ("NvmeCommand", "NvmeCompletion", "NvmeOpcode", "NvmeStatus"),
    "controller": ("NvmeController", "NvmeQueuePair"),
    "namespace": ("Namespace", "LBA_SIZE"),
})
