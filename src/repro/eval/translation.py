"""E5: segment translation vs page-based virtual memory (paper §2.1).

"The unique aspect of segmentation-based location translation is that it is
coarser (object-based) than virtual memory (page-based), thus reducing
overheads associated with the virtual memory translation."

Sweep working-set size; charge a 4-level walk per TLB miss for pages and
one associative lookup per *object* access for segments. Expected shape:
costs are comparable while the working set fits the TLB, then page-based
translation falls off a cliff while segments stay flat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, violated
from repro.memory.vm import (
    PAGE_SIZE,
    SEGMENT_LOOKUP_LATENCY,
    VirtualMemoryModel,
)

#: Objects in the segment comparison are this big (so one object spans
#: many pages — the coarseness argument).
OBJECT_SIZE = 64 * 1024


@dataclass
class TranslationPoint:
    """One E5 sweep point: paging vs segment translation cost."""

    working_set_bytes: int
    tlb_hit_rate: float
    page_walk_accesses: int
    page_translation_time: float
    segment_translation_time: float
    huge_page_translation_time: float = 0.0

    @property
    def segment_advantage(self) -> float:
        if self.segment_translation_time == 0:
            return float("inf")
        return self.page_translation_time / self.segment_translation_time


def metrics(points) -> Dict[str, Metric]:
    largest = max(points, key=lambda p: p.working_set_bytes)
    return {
        "largest_segment_translation_s": Metric(
            largest.segment_translation_time, LOWER, "s"),
        "largest_segment_advantage": Metric(
            largest.segment_advantage, HIGHER, "x"),
        "largest_tlb_hit_rate": Metric(largest.tlb_hit_rate, INFO, "frac"),
    }


def accept(points) -> List[str]:
    small, large = points[0], points[-1]  # in working-set order
    return violated(
        (all(p.segment_translation_time < p.page_translation_time
             for p in points if p.tlb_hit_rate < 0.9),
         "segments translate cheaper wherever the TLB hit rate is < 0.9"),
        (small.tlb_hit_rate > 0.9 and large.tlb_hit_rate < 0.2,
         "the TLB covers the smallest working set and misses the largest"),
        (large.segment_advantage > 10 * small.segment_advantage,
         "the segment advantage grows >10x once the TLB reach is outrun"),
        (large.huge_page_translation_time
         > 10 * points[-2].huge_page_translation_time,
         "2 MiB pages fall off their own cliff at the largest working set"),
        (large.segment_translation_time < large.huge_page_translation_time,
         "segments stay cheaper than huge pages at the largest working set"),
    )


def _measure(working_set_bytes: int, accesses: int, tlb_entries: int,
             seed: int) -> TranslationPoint:
    rng = random.Random(seed)
    vm = VirtualMemoryModel(tlb_entries=tlb_entries)
    # Ablation: 2 MiB huge pages (one fewer radix level, TLB reach x512,
    # but typically far fewer huge-TLB entries).
    huge = VirtualMemoryModel(tlb_entries=max(32, tlb_entries // 48),
                              levels=3, page_size=2 << 20)
    page_time = 0.0
    huge_time = 0.0
    for _ in range(accesses):
        vaddr = rng.randrange(working_set_bytes)
        page_time += vm.translate(vaddr)
        huge_time += huge.translate(vaddr)
    # Segments: the same accesses name (object id, offset); each access is
    # one associative lookup regardless of working-set size.
    segment_time = accesses * SEGMENT_LOOKUP_LATENCY
    return TranslationPoint(
        working_set_bytes=working_set_bytes,
        tlb_hit_rate=vm.tlb.hit_rate,
        page_walk_accesses=vm.page_table.walks * vm.page_table.levels,
        page_translation_time=page_time,
        segment_translation_time=segment_time,
        huge_page_translation_time=huge_time,
    )


def run_translation(
    working_sets=(1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20),
    accesses: int = 20_000,
    tlb_entries: int = 1536,
    seed: int = 9,
) -> List[TranslationPoint]:
    return [
        _measure(ws, accesses, tlb_entries, seed) for ws in working_sets
    ]


def format_translation(points: List[TranslationPoint]) -> str:
    table = Table(
        "E5: address translation cost, paging+TLB (4 KiB and 2 MiB pages) "
        "vs segment table",
        ["working set", "TLB hit rate", "walk mem refs",
         "4K page cost", "2M page cost", "segment cost", "advantage"],
    )
    for p in points:
        table.add_row(
            f"{p.working_set_bytes >> 20} MiB",
            f"{p.tlb_hit_rate:.3f}",
            p.page_walk_accesses,
            f"{p.page_translation_time * 1e6:.1f} us",
            f"{p.huge_page_translation_time * 1e6:.1f} us",
            f"{p.segment_translation_time * 1e6:.1f} us",
            f"{p.segment_advantage:.1f}x",
        )
    return table.render()
