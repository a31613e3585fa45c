"""Tests for the FPGA fabric, bitstreams, ICAP, and AXI interconnect."""

import pytest

from repro.common.errors import CapacityError, ConfigurationError
from repro.common.units import MSEC
from repro.hw.fpga import (
    ALVEO_U280,
    AddressRange,
    AxiStreamInterconnect,
    Bitstream,
    BitstreamAuthority,
    Fabric,
    FabricResources,
    Icap,
)
from repro.hw.fpga.fabric import SHELL_FRACTION
from repro.sim import Simulator


def small_bitstream(name="accel", luts=1000, size=8 * 1024 * 1024):
    return Bitstream(name, FabricResources(luts=luts), size_bytes=size)


class TestFabricResources:
    def test_add_sub(self):
        a = FabricResources(luts=10, brams=2)
        b = FabricResources(luts=5, dsps=3)
        assert (a + b).luts == 15
        assert (a + b).dsps == 3
        assert (a - b).luts == 5

    def test_fits_within(self):
        small = FabricResources(luts=10)
        big = FabricResources(luts=100, brams=5)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_scaled(self):
        half = ALVEO_U280.scaled(0.5)
        assert half.luts == ALVEO_U280.luts // 2

    def test_u280_datasheet_numbers(self):
        assert ALVEO_U280.luts == 1_304_000
        assert ALVEO_U280.urams == 960


class TestFabric:
    def test_default_carving(self):
        fabric = Fabric(num_slots=5)
        assert len(fabric.slots) == 5
        total_slot_luts = sum(s.budget.luts for s in fabric.slots)
        shell = ALVEO_U280.scaled(SHELL_FRACTION)
        assert total_slot_luts + shell.luts <= ALVEO_U280.luts

    def test_memory_banks(self):
        fabric = Fabric()
        assert fabric.hbm.bandwidth > fabric.dram.bandwidth

    def test_slot_load_unload(self):
        fabric = Fabric()
        bs = small_bitstream()
        slot = fabric.free_slot()
        slot.load(bs, tenant="alice")
        assert slot.occupied
        assert fabric.slot_for("accel") is slot
        assert fabric.utilization() == pytest.approx(1 / 5)
        assert slot.unload() is bs
        assert not slot.occupied

    def test_double_load_rejected(self):
        slot = Fabric().free_slot()
        slot.load(small_bitstream("a"))
        with pytest.raises(CapacityError):
            slot.load(small_bitstream("b"))

    def test_oversized_bitstream_rejected(self):
        fabric = Fabric()
        huge = small_bitstream("huge", luts=ALVEO_U280.luts)
        with pytest.raises(CapacityError):
            fabric.slots[0].load(huge)

    def test_unload_empty_slot(self):
        with pytest.raises(ConfigurationError):
            Fabric().slots[0].unload()


class TestBitstreamAuthority:
    def test_sign_and_verify(self):
        authority = BitstreamAuthority(b"secret")
        signed = authority.sign(small_bitstream())
        assert authority.verify(signed)

    def test_tampered_signature_rejected(self):
        authority = BitstreamAuthority(b"secret")
        signed = authority.sign(small_bitstream())
        other = BitstreamAuthority(b"wrong-key").sign(signed.bitstream)
        assert not authority.verify(other)

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigurationError):
            BitstreamAuthority(b"")

    def test_bad_bitstream_params(self):
        with pytest.raises(ConfigurationError):
            Bitstream("x", FabricResources(), size_bytes=0)


class TestIcap:
    def test_latency_in_paper_band(self):
        """Typical partial bitstreams reconfigure in 10-100 ms (paper §2)."""
        sim = Simulator()
        icap = Icap(sim)
        for size_mib in (8, 16, 32, 64):
            bs = small_bitstream(size=size_mib * 1024 * 1024)
            latency = icap.reconfiguration_latency(bs)
            assert 10 * MSEC <= latency <= 100 * MSEC, (size_mib, latency)

    def test_load_evicts_and_records(self):
        sim = Simulator()
        icap = Icap(sim)
        fabric = Fabric()
        slot = fabric.slots[0]

        def scenario():
            yield from icap.load(slot, small_bitstream("first"))
            latency = yield from icap.load(slot, small_bitstream("second"))
            return latency

        latency = sim.run_process(scenario())
        assert slot.loaded.name == "second"
        metrics = slot.metrics
        assert metrics.registry.get(f"{metrics.prefix}.load_count").value == 2
        assert len(icap.history) == 2
        assert latency == pytest.approx(icap.history[1])

    def test_reconfigurations_serialize(self):
        sim = Simulator()
        icap = Icap(sim)
        fabric = Fabric()
        bs = small_bitstream()

        def load_one(slot):
            yield from icap.load(slot, bs)
            return sim.now

        procs = [
            sim.process(load_one(fabric.slots[0])),
            sim.process(load_one(fabric.slots[1])),
        ]
        sim.run()
        single = icap.reconfiguration_latency(bs)
        assert procs[0].value == pytest.approx(single)
        assert procs[1].value == pytest.approx(2 * single)


def route(axi, address):
    """Resolve a bus address to ``(range, offset_within_range)`` over the
    windows *axi* holds, as the paper's static range map does."""
    for window in axi._ranges:
        if window.base <= address < window.end:
            return window, address - window.base
    raise ConfigurationError(f"bus address {address:#x} is unmapped")


class TestAxiInterconnect:
    def test_route(self):
        axi = AxiStreamInterconnect()
        axi.add_range(AddressRange(0, 1024, "dram", "dram"))
        axi.add_range(AddressRange(1024, 1024, "nvme", "nvme-bar"))
        window, offset = route(axi, 1030)
        assert window.target == "nvme"
        assert offset == 6

    def test_unmapped_address(self):
        axi = AxiStreamInterconnect()
        with pytest.raises(ConfigurationError):
            route(axi, 0)

    def test_overlap_rejected(self):
        axi = AxiStreamInterconnect()
        axi.add_range(AddressRange(0, 1024, "a", "a"))
        with pytest.raises(ConfigurationError):
            axi.add_range(AddressRange(512, 1024, "b", "b"))
