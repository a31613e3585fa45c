"""Tests for the hint/access-driven tiering policy (paper §2.1)."""

import pytest

from repro.hw.fpga.fabric import MemoryBank
from repro.hw.nvme import Namespace, NvmeController
from repro.memory import (
    DramBackend,
    NvmeBackend,
    PlacementHint,
    SegmentLocation,
    SingleLevelStore,
)
from repro.memory.tiering import TieringPolicy
from repro.sim import Simulator


def make_store(dram_capacity=1 << 16, with_hbm=False):
    sim = Simulator()
    dram = DramBackend(
        sim, MemoryBank("ddr4-0", dram_capacity, 19.2e9, 80e-9), dram_capacity
    )
    controller = NvmeController(sim, "tier-ssd")
    controller.add_namespace(Namespace(1, 4096))
    qp = controller.create_queue_pair()
    controller.start()
    hbm = None
    if with_hbm:
        hbm = DramBackend(sim, MemoryBank("hbm", 1 << 16, 460e9, 120e-9), 1 << 16)
    return SingleLevelStore(sim, dram, NvmeBackend(sim, controller, qp), hbm=hbm)


class TestPromotion:
    def test_hot_flash_segment_promoted(self):
        store = make_store()
        policy = TieringPolicy(store, hot_threshold=5)
        cold = store.allocate(64, hint=PlacementHint.COLD)
        store.write(cold.oid, b"x" * 64)
        for _ in range(10):
            store.read(cold.oid, 8)
        decisions = policy.run_epoch()
        assert len(decisions) == 1
        assert decisions[0].moved_to is SegmentLocation.DRAM
        assert store.table.lookup(cold.oid).location is SegmentLocation.DRAM
        assert store.read(cold.oid, 3) == b"xxx"  # bytes moved with it

    def test_idle_flash_segment_stays(self):
        store = make_store()
        policy = TieringPolicy(store, hot_threshold=5)
        cold = store.allocate(64, hint=PlacementHint.COLD)
        store.read(cold.oid, 8)  # a single access: below threshold
        assert policy.run_epoch() == []
        assert store.table.lookup(cold.oid).location is SegmentLocation.NVME

    def test_durable_segment_never_promoted(self):
        store = make_store()
        policy = TieringPolicy(store, hot_threshold=1)
        durable = store.allocate(64, durable=True)
        store.write(durable.oid, b"pinned")
        for _ in range(20):
            store.read(durable.oid, 6)
        assert policy.run_epoch() == []
        assert store.table.lookup(durable.oid).location is SegmentLocation.NVME

    def test_promotion_to_hbm_when_preferred(self):
        store = make_store(with_hbm=True)
        policy = TieringPolicy(store, hot_threshold=2, prefer_hbm=True)
        cold = store.allocate(64, hint=PlacementHint.COLD)
        for _ in range(5):
            store.read(cold.oid, 4)
        decisions = policy.run_epoch()
        assert decisions[0].moved_to is SegmentLocation.HBM

    def test_epoch_counters_reset(self):
        """Accesses counted in epoch 1 must not re-trigger in epoch 2."""
        store = make_store()
        policy = TieringPolicy(store, hot_threshold=5)
        a = store.allocate(64, hint=PlacementHint.COLD)
        b = store.allocate(64, hint=PlacementHint.COLD)
        for _ in range(10):
            store.read(a.oid, 4)
        policy.run_epoch()
        # b gets 4 accesses across two epochs: never hot within one.
        for _ in range(4):
            store.read(b.oid, 4)
        policy.run_epoch()
        for _ in range(4):
            store.read(b.oid, 4)
        decisions = policy.run_epoch()
        assert decisions == []

    def test_move_budget_respected(self):
        store = make_store()
        policy = TieringPolicy(store, hot_threshold=1, max_moves_per_epoch=2)
        for _ in range(5):
            segment = store.allocate(32, hint=PlacementHint.COLD)
            store.read(segment.oid, 4)
            store.read(segment.oid, 4)
        assert len(policy.run_epoch()) == 2


class TestPlacementAblation:
    """Static placement vs hint/access-driven promotion (DESIGN ablation 2)."""

    @staticmethod
    def epoch_latencies(tiered, epochs=4, accesses=20):
        """Mean timed-read latency per epoch of one hot object allocated
        on flash, and the tier it ends on."""
        store = make_store()
        sim = store.sim
        policy = TieringPolicy(store, hot_threshold=5) if tiered else None
        hot = store.allocate(256, hint=PlacementHint.COLD)
        store.write(hot.oid, b"h" * 256)
        means = []

        def workload():
            for _ in range(epochs):
                start = sim.now
                for _ in range(accesses):
                    yield from store.timed_read(hot.oid, 64)
                means.append((sim.now - start) / accesses)
                if policy is not None:
                    policy.run_epoch()

        sim.run_process(workload())
        return means, store.table.lookup(hot.oid).location

    def test_static_placement_pays_flash_latency_forever(self):
        means, location = self.epoch_latencies(tiered=False)
        assert location is SegmentLocation.NVME
        assert min(means) > 50e-6

    def test_promotion_after_one_epoch_reads_at_dram_latency(self):
        static, __ = self.epoch_latencies(tiered=False)
        means, location = self.epoch_latencies(tiered=True)
        assert location is SegmentLocation.DRAM
        assert means[0] > 50e-6  # started on flash
        assert means[-1] < 1e-6  # finished in DRAM
        assert static[-1] / means[-1] > 50


class TestDemotion:
    def test_cold_dram_demoted_under_pressure(self):
        store = make_store(dram_capacity=1024)
        policy = TieringPolicy(store, dram_high_watermark=0.5)
        idle = store.allocate(256)
        store.write(idle.oid, b"i" * 256)
        busy = store.allocate(512)
        store.write(busy.oid, b"b" * 512)
        policy.run_epoch()  # epoch 0: counters snapshot
        for _ in range(5):
            store.read(busy.oid, 8)
        decisions = policy.run_epoch()
        demoted = [d for d in decisions
                   if d.moved_to is SegmentLocation.NVME]
        assert [d.oid for d in demoted] == [idle.oid]
        assert store.read(idle.oid, 4) == b"iiii"
        assert store.table.lookup(busy.oid).location is SegmentLocation.DRAM

    def test_no_demotion_without_pressure(self):
        store = make_store(dram_capacity=1 << 16)
        policy = TieringPolicy(store, dram_high_watermark=0.9)
        idle = store.allocate(64)
        policy.run_epoch()
        assert policy.run_epoch() == []
        assert store.table.lookup(idle.oid).location is SegmentLocation.DRAM

    def test_stats_accumulate(self):
        store = make_store()
        policy = TieringPolicy(store, hot_threshold=1)
        hot = store.allocate(64, hint=PlacementHint.COLD)
        store.read(hot.oid, 4)
        store.read(hot.oid, 4)
        policy.run_epoch()
        assert policy.epochs == 1
        assert policy.promotions == 1
        assert len(policy.decisions) == 1
