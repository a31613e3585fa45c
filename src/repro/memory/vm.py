"""Baseline page-based virtual memory: 4-level walks and a TLB.

The paper argues (§1, §2.1) that CPU-centric virtual memory — page tables,
TLBs, nested walks — is a major source of complexity and overhead that
accelerators inherit, and that coarse, object-granular segment translation
avoids it. This model makes that comparison measurable: it counts the
memory accesses a radix page walk costs across a working-set sweep, versus
one associative lookup per segment.
"""

from __future__ import annotations

from collections import OrderedDict

PAGE_SIZE = 4096
#: x86-64 style 4-level radix table.
WALK_LEVELS = 4
#: A pointer-chase DRAM access during a table walk (no caching of PTEs).
WALK_ACCESS_LATENCY = 80e-9
#: An on-fabric associative lookup (BRAM hit) for segment translation.
SEGMENT_LOOKUP_LATENCY = 5e-9


class TlbModel:
    """A fixed-capacity, LRU translation lookaside buffer."""

    def __init__(self, entries: int = 1536, page_size: int = PAGE_SIZE):
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self.page_size = page_size
        self._cache: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, vaddr: int) -> bool:
        page = vaddr // self.page_size
        if page in self._cache:
            self._cache.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        self._cache[page] = True
        if len(self._cache) > self.entries:
            self._cache.popitem(last=False)
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageTableModel:
    """A radix page table: a miss costs ``levels`` dependent memory reads."""

    def __init__(self, levels: int = WALK_LEVELS):
        self.levels = levels
        self.walks = 0

    def walk(self) -> float:
        """One walk; returns its latency: ``levels`` dependent reads."""
        self.walks += 1
        return self.levels * WALK_ACCESS_LATENCY


class VirtualMemoryModel:
    """TLB + page table: the CPU-centric translation baseline.

    ``page_size`` allows the huge-page ablation (2 MiB pages extend TLB
    reach at the cost of one fewer radix level, as on x86-64).
    """

    def __init__(self, tlb_entries: int = 1536, levels: int = WALK_LEVELS,
                 page_size: int = PAGE_SIZE):
        self.tlb = TlbModel(entries=tlb_entries, page_size=page_size)
        self.page_table = PageTableModel(levels=levels)

    def translate(self, vaddr: int) -> float:
        """One translation's latency: free on a TLB hit, a walk on a miss."""
        if self.tlb.lookup(vaddr):
            return 0.0
        return self.page_table.walk()
