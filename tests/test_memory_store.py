"""Tests for the single-level store: placement, access, recovery."""

import pytest

from repro.common.errors import CapacityError
from repro.common.ids import ObjectId
from repro.hw.fpga.fabric import MemoryBank
from repro.hw.nvme import Namespace, NvmeController
from repro.memory import (
    DramBackend,
    NvmeBackend,
    PlacementHint,
    SegmentLocation,
    SingleLevelStore,
)
from repro.memory.store import BOOT_AREA_BLOCKS, NVME_WINDOW_BASE
from repro.sim import Simulator


def make_store(sim=None, dram_capacity=1 << 20, nvme_blocks=2048, with_hbm=False):
    sim = sim if sim is not None else Simulator()
    dram_bank = MemoryBank("ddr4-0", dram_capacity, 19.2e9, 80e-9)
    dram = DramBackend(sim, dram_bank, capacity=dram_capacity)
    controller = NvmeController(sim, "nvme-0")
    controller.add_namespace(Namespace(1, nvme_blocks))
    qp = controller.create_queue_pair()
    controller.start()
    nvme = NvmeBackend(sim, controller, qp)
    hbm = None
    if with_hbm:
        hbm = DramBackend(sim, MemoryBank("hbm", 1 << 20, 460e9, 120e-9), 1 << 20)
    return SingleLevelStore(sim, dram, nvme, hbm=hbm), sim


class TestPlacement:
    def test_default_goes_to_dram(self):
        store, __ = make_store()
        segment = store.allocate(128)
        assert segment.location is SegmentLocation.DRAM

    def test_durable_goes_to_nvme(self):
        store, __ = make_store()
        segment = store.allocate(128, durable=True)
        assert segment.location is SegmentLocation.NVME
        assert segment.bus_address >= NVME_WINDOW_BASE

    def test_cold_hint_goes_to_nvme(self):
        store, __ = make_store()
        assert (
            store.allocate(128, hint=PlacementHint.COLD).location
            is SegmentLocation.NVME
        )

    def test_performance_hint_prefers_hbm(self):
        store, __ = make_store(with_hbm=True)
        segment = store.allocate(128, hint=PlacementHint.PERFORMANCE_CRITICAL)
        assert segment.location is SegmentLocation.HBM

    def test_performance_hint_without_hbm_falls_back(self):
        store, __ = make_store(with_hbm=False)
        segment = store.allocate(128, hint=PlacementHint.PERFORMANCE_CRITICAL)
        assert segment.location is SegmentLocation.DRAM


class TestAccess:
    def test_write_read_roundtrip_dram(self):
        store, __ = make_store()
        segment = store.allocate(64)
        store.write(segment.oid, b"hello")
        assert store.read(segment.oid, 5) == b"hello"

    def test_write_read_roundtrip_nvme(self):
        store, __ = make_store()
        segment = store.allocate(64, durable=True)
        store.write(segment.oid, b"durable-data")
        assert store.read(segment.oid, 12) == b"durable-data"

    def test_offset_access(self):
        store, __ = make_store()
        segment = store.allocate(64)
        store.write(segment.oid, b"abcdef")
        assert store.read(segment.oid, 2, offset=2) == b"cd"
        assert store.read(segment.oid, offset=60) == bytes(4)

    def test_out_of_bounds_rejected(self):
        store, __ = make_store()
        segment = store.allocate(8)
        with pytest.raises(CapacityError):
            store.write(segment.oid, b"123456789")

    def test_read_full_segment_by_default(self):
        store, __ = make_store()
        segment = store.allocate(16)
        assert len(store.read(segment.oid)) == 16

    def test_timed_read_charges_nvme_latency(self):
        store, sim = make_store()
        segment = store.allocate(64, durable=True)
        store.write(segment.oid, b"x" * 64)

        def scenario():
            yield from store.timed_read(segment.oid, 64)
            return sim.now

        elapsed = sim.run_process(scenario())
        # NVMe read must cost at least the flash read latency.
        assert elapsed >= 80e-6

    def test_timed_dram_faster_than_nvme(self):
        store, sim = make_store()
        hot = store.allocate(64)
        cold = store.allocate(64, durable=True)
        store.write(hot.oid, b"a" * 64)
        store.write(cold.oid, b"b" * 64)

        def timed(oid):
            local_store, local_sim = store, sim
            start = local_sim.now

            def proc():
                yield from local_store.timed_read(oid, 64)
                return local_sim.now - start

            return local_sim.run_process(proc())

        assert timed(hot.oid) < timed(cold.oid) / 100


class TestPersistence:
    def test_recover_durable_segments(self):
        store, sim = make_store()
        durable = store.allocate(64, durable=True, oid=ObjectId(77))
        store.write(durable.oid, b"survives power loss")
        ephemeral = store.allocate(64)
        store.write(ephemeral.oid, b"volatile")
        store.persist_table()

        # Power cycle: DRAM is new/empty, NVMe backend object survives.
        recovered = SingleLevelStore.recover(sim,
            DramBackend(sim, store.dram.bank, store.dram.capacity), store.nvme
        )
        assert ObjectId(77) in recovered.table
        assert recovered.read(ObjectId(77), 19) == b"survives power loss"
        assert ephemeral.oid not in recovered.table

    def test_recovery_avoids_overwriting_live_extents(self):
        store, sim = make_store()
        durable = store.allocate(64, durable=True, oid=ObjectId(5))
        store.write(durable.oid, b"old data")
        store.persist_table()
        recovered = SingleLevelStore.recover(
            sim, DramBackend(sim, store.dram.bank, store.dram.capacity), store.nvme
        )
        fresh = recovered.allocate(64, durable=True)
        recovered.write(fresh.oid, b"new data")
        assert recovered.read(ObjectId(5), 8) == b"old data"

    def test_persist_reports_size(self):
        store, __ = make_store()
        store.allocate(64, durable=True)
        written = store.persist_table()
        assert written == 16 + 40  # header + one record

    def test_boot_area_reserved(self):
        """Allocations must never land inside the boot area."""
        store, __ = make_store()
        segment = store.allocate(64, durable=True)
        offset = segment.bus_address - NVME_WINDOW_BASE
        assert offset >= BOOT_AREA_BLOCKS * 4096
