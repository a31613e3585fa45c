"""Tests for the baseline virtual-memory model and the segment comparison."""

import random

from repro.memory.vm import (
    PAGE_SIZE,
    SEGMENT_LOOKUP_LATENCY,
    TlbModel,
    VirtualMemoryModel,
)


class TestTlb:
    def test_first_access_misses(self):
        tlb = TlbModel(entries=4)
        assert not tlb.lookup(0)
        assert tlb.lookup(0)

    def test_same_page_hits(self):
        tlb = TlbModel(entries=4)
        tlb.lookup(0)
        assert tlb.lookup(PAGE_SIZE - 1)

    def test_lru_eviction(self):
        tlb = TlbModel(entries=2)
        tlb.lookup(0 * PAGE_SIZE)
        tlb.lookup(1 * PAGE_SIZE)
        tlb.lookup(2 * PAGE_SIZE)  # evicts page 0
        assert not tlb.lookup(0 * PAGE_SIZE)

    def test_lru_touch_refreshes(self):
        tlb = TlbModel(entries=2)
        tlb.lookup(0 * PAGE_SIZE)
        tlb.lookup(1 * PAGE_SIZE)
        tlb.lookup(0 * PAGE_SIZE)  # refresh page 0
        tlb.lookup(2 * PAGE_SIZE)  # evicts page 1, not 0
        assert tlb.lookup(0 * PAGE_SIZE)

    def test_hit_rate(self):
        tlb = TlbModel(entries=8)
        for _ in range(10):
            tlb.lookup(0)
        assert tlb.hit_rate == 0.9


class TestVirtualMemoryModel:
    def test_miss_costs_four_accesses(self):
        vm = VirtualMemoryModel()
        result = vm.translate(0)
        assert not result.hit
        assert result.memory_accesses == 4

    def test_hit_costs_nothing(self):
        vm = VirtualMemoryModel()
        vm.translate(0)
        result = vm.translate(64)
        assert result.hit
        assert result.memory_accesses == 0

    def test_large_working_set_thrashes(self):
        """Working sets beyond TLB reach miss almost always — the overhead
        the paper's segment model avoids."""
        vm = VirtualMemoryModel(tlb_entries=64)
        rng = random.Random(1)
        pages = 10_000
        misses = 0
        for _ in range(5_000):
            vaddr = rng.randrange(pages) * PAGE_SIZE
            if not vm.translate(vaddr).hit:
                misses += 1
        assert misses / 5_000 > 0.95

    def test_small_working_set_hits(self):
        vm = VirtualMemoryModel(tlb_entries=64)
        rng = random.Random(1)
        for _ in range(2_000):
            vm.translate(rng.randrange(32) * PAGE_SIZE)
        assert vm.tlb.hit_rate > 0.9


class TestSegmentComparison:
    def test_segment_cheaper_than_walk(self):
        vm = VirtualMemoryModel()
        walk = vm.translate(0)
        assert SEGMENT_LOOKUP_LATENCY < walk.latency
