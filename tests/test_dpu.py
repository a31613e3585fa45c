"""Tests for the composed Hyperion DPU, schematic, OS-shell, and tenancy."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import ObjectId
from repro.dpu import (
    HyperionDpu,
    OsShell,
    SlotScheduler,
    build_schematic,
    schematic_table,
)
from repro.ebpf import assemble
from repro.hdl import compile_program
from repro.hw.fpga.bitstream import Bitstream, BitstreamAuthority
from repro.hw.fpga.resources import FabricResources
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket


def booted_dpu(sim, net=None, **kwargs):
    net = net if net is not None else Network(sim)
    dpu = HyperionDpu(sim, net, ssd_blocks=8192, **kwargs)
    sim.run_process(dpu.boot())
    return dpu, net


class TestSchematic:
    def test_figure2_inventory(self):
        kinds = Counter(node.kind for node in build_schematic().nodes.values())
        assert kinds["accelerator-slot"] == 5
        assert kinds["ssd"] == 4
        assert kinds["pcie-bridge"] == 4
        assert kinds["network-port"] == 2

    def test_network_reaches_storage(self):
        """The end-to-end hardware path: QSFP -> slots -> NVMe, no CPU."""
        s = build_schematic()
        reachable = s.reachable_from("qsfp0")
        assert "ehdl-slot-0" in reachable
        assert "nvme-ssd-3" in reachable

    def test_config_engine_reaches_all_slots(self):
        s = build_schematic()
        reachable = s.reachable_from("runtime-config-engine")
        for i in range(5):
            assert f"ehdl-slot-{i}" in reachable

    def test_table_rendering(self):
        text = schematic_table(build_schematic())
        assert "nvme-host-ip" in text
        assert "qsfp0" in text

    def test_duplicate_node_rejected(self):
        s = build_schematic()
        with pytest.raises(ConfigurationError):
            s.add("qsfp0", "network-port")


class TestBoot:
    def test_boot_report(self):
        sim = Simulator()
        dpu, __ = booted_dpu(sim)
        report = dpu.boot_report
        assert report.jtag_ok
        assert len(report.enumerated_ssds) == 4
        assert report.boot_time >= 0.16  # JTAG + shell config
        dpu.require_booted()

    def test_double_boot_rejected(self):
        sim = Simulator()
        dpu, __ = booted_dpu(sim)
        with pytest.raises(ConfigurationError):
            sim.run_process(dpu.boot())

    def test_store_usable_after_boot(self):
        sim = Simulator()
        dpu, __ = booted_dpu(sim)
        segment = dpu.store.allocate(128, durable=True)
        dpu.store.write(segment.oid, b"via the DPU store")
        assert dpu.store.read(segment.oid, 17) == b"via the DPU store"

    def test_axi_routes_both_windows(self):
        sim = Simulator()
        dpu, __ = booted_dpu(sim)
        from repro.memory.store import DRAM_WINDOW_BASE, NVME_WINDOW_BASE
        assert dpu.axi.route(DRAM_WINDOW_BASE)[0].name == "fpga-dram"
        assert dpu.axi.route(NVME_WINDOW_BASE)[0].name == "nvme-bar-window"

    def test_inventory(self):
        sim = Simulator()
        dpu, __ = booted_dpu(sim)
        inventory = dpu.inventory()
        assert inventory["nvme_ssds"] == 4
        assert inventory["qsfp_ports"] == 2
        assert inventory["tdp_watts"] == pytest.approx(230.0)


class TestPowerCycle:
    def test_durable_segments_survive(self):
        sim = Simulator()
        dpu, __ = booted_dpu(sim)
        segment = dpu.store.allocate(64, durable=True, oid=ObjectId(1234))
        dpu.store.write(segment.oid, b"must survive")
        ephemeral = dpu.store.allocate(64)
        dpu.store.write(ephemeral.oid, b"will vanish")
        dpu.store.persist_table()

        twin = dpu.power_cycle()
        report = sim.run_process(twin.boot(recover_store=True))
        assert report.segment_table_recovered
        assert report.recovered_segments == 1
        assert twin.store.read(ObjectId(1234), 12) == b"must survive"
        assert ephemeral.oid not in twin.store.table


class TestOsShell:
    def make_shell(self, sim):
        net = Network(sim)
        dpu, __ = booted_dpu(sim, net=net)
        authority = BitstreamAuthority(b"fleet-key")
        shell_server = RpcServer(sim, UdpSocket(sim, net.endpoint("shell")))
        shell = OsShell(sim, dpu, shell_server, authority)
        client = RpcClient(sim, UdpSocket(sim, net.endpoint("operator")))
        return dpu, shell, client, authority

    def compiled_bitstream(self, name="accel"):
        return compile_program(
            assemble("mov r0, 1\nexit", name=name)
        ).to_bitstream()

    def test_load_signed_bitstream(self):
        sim = Simulator()
        dpu, shell, client, authority = self.make_shell(sim)
        signed = authority.sign(self.compiled_bitstream())

        def scenario():
            slot = yield from client.call(
                "shell", "shell.load", signed, "tenant-a",
                request_size=signed.bitstream.size_bytes, response_size=16,
            )
            return slot

        slot = sim.run_process(scenario())
        assert dpu.fabric.slots[slot].loaded.name == "accel"
        assert dpu.fabric.slots[slot].tenant == "tenant-a"
        assert shell.loads_accepted == 1

    def test_bad_signature_rejected(self):
        sim = Simulator()
        dpu, shell, client, __ = self.make_shell(sim)
        rogue = BitstreamAuthority(b"wrong-key").sign(self.compiled_bitstream())

        def scenario():
            yield from client.call(
                "shell", "shell.load", rogue, "tenant-x",
                request_size=1024, response_size=16,
            )

        with pytest.raises(Exception, match="signature"):
            sim.run_process(scenario())
        assert shell.loads_rejected == 1

    def test_unencrypted_rejected(self):
        sim = Simulator()
        __, shell, client, authority = self.make_shell(sim)
        plain = replace(authority.sign(self.compiled_bitstream()), encrypted=False)

        def scenario():
            yield from client.call(
                "shell", "shell.load", plain, "t",
                request_size=1024, response_size=16,
            )

        with pytest.raises(Exception, match="encrypted"):
            sim.run_process(scenario())

    def test_unload_wrong_tenant_rejected(self):
        sim = Simulator()
        dpu, __, client, authority = self.make_shell(sim)
        signed = authority.sign(self.compiled_bitstream())

        def scenario():
            slot = yield from client.call(
                "shell", "shell.load", signed, "owner",
                request_size=1024, response_size=16,
            )
            yield from client.call(
                "shell", "shell.unload", slot, "thief",
                request_size=64, response_size=16,
            )

        with pytest.raises(Exception, match="another tenant"):
            sim.run_process(scenario())

    def test_slots_listing_and_persist(self):
        sim = Simulator()
        dpu, __, client, authority = self.make_shell(sim)
        dpu.store.allocate(64, durable=True)

        def scenario():
            slots = yield from client.call("shell", "shell.slots")
            written = yield from client.call("shell", "shell.persist")
            return slots, written

        slots, written = sim.run_process(scenario())
        assert len(slots) == 5
        assert all(not entry["occupied"] for entry in slots)
        assert written == 16 + 40


class TestTenancy:
    def make_scheduler(self, sim, num_slots=2, **kwargs):
        dpu, __ = booted_dpu(sim, num_slots=num_slots)
        return dpu, SlotScheduler(sim, dpu.fabric, dpu.icap, **kwargs)

    def bitstream(self, name):
        return Bitstream(name, FabricResources(luts=100), size_bytes=16 * 1024 * 1024)

    def test_grants_up_to_capacity(self):
        sim = Simulator()
        dpu, scheduler = self.make_scheduler(sim, num_slots=2)
        requests = [scheduler.submit(f"t{i}", self.bitstream(f"b{i}")) for i in range(2)]
        sim.run()
        assert all(r.granted_at is not None for r in requests)
        assert scheduler.utilization() == 1.0

    def test_queueing_when_full(self):
        sim = Simulator()
        dpu, scheduler = self.make_scheduler(sim, num_slots=1)
        first = scheduler.submit("a", self.bitstream("a"))
        second = scheduler.submit("b", self.bitstream("b"))
        sim.run()
        assert first.granted_at is not None
        assert second.granted_at is None  # still waiting
        scheduler.release(first.slot_index)
        sim.run()
        assert second.granted_at is not None
        assert second.wait_time > 0

    def test_grant_latency_in_reconfig_band(self):
        """Slot multiplexing happens at the paper's 10-100 ms timescale."""
        sim = Simulator()
        dpu, scheduler = self.make_scheduler(sim, num_slots=1)
        request = scheduler.submit("t", self.bitstream("b"))
        sim.run()
        assert 10e-3 <= request.wait_time <= 100e-3
