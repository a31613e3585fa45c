"""The single-level, segmentation-based memory/storage model (paper §2.1).

Hyperion replaces the two-level DRAM/storage split (and page-based virtual
memory) with one address space of 128-bit segments. A segment translation
table maps segment ids to bus addresses in DRAM, HBM, or on NVMe flash;
placement is static, steered by allocation hints, and the table itself
persists to a boot NVMe area so durable segments survive power loss.

For the paper's overhead comparison (segments vs pages), the package also
contains a baseline page-based virtual memory model with a 4-level walk and
TLB.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "segments": ("Segment", "SegmentLocation", "PlacementHint"),
    "table": ("SegmentTranslationTable",),
    "backends": ("DramBackend", "NvmeBackend"),
    "store": ("SingleLevelStore",),
    "vm": ("PageTableModel", "TlbModel", "VirtualMemoryModel"),
})
