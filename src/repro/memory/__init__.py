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

from repro.memory.segments import Segment, SegmentLocation, PlacementHint
from repro.memory.table import SegmentTranslationTable
from repro.memory.backends import DramBackend, NvmeBackend
from repro.memory.store import SingleLevelStore
from repro.memory.vm import PageTableModel, TlbModel, VirtualMemoryModel

__all__ = [
    "Segment",
    "SegmentLocation",
    "PlacementHint",
    "SegmentTranslationTable",
    "DramBackend",
    "NvmeBackend",
    "SingleLevelStore",
    "PageTableModel",
    "TlbModel",
    "VirtualMemoryModel",
]
