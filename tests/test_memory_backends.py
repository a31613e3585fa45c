"""Direct tests for the DRAM and NVMe segment backends."""

import pytest

from repro.common.errors import CapacityError
from repro.hw.fpga.fabric import MemoryBank
from repro.hw.nvme import Namespace, NvmeController
from repro.hw.nvme.namespace import LBA_SIZE
from repro.memory import DramBackend, NvmeBackend
from repro.sim import Simulator


def make_backends(sim=None, blocks=64):
    sim = sim if sim is not None else Simulator()
    dram = DramBackend(sim, MemoryBank("ddr4-0", 1 << 16, 19.2e9, 80e-9), 1 << 16)
    controller = NvmeController(sim, "ssd")
    controller.add_namespace(Namespace(1, blocks))
    qp = controller.create_queue_pair()
    controller.start()
    return dram, NvmeBackend(sim, controller, qp), sim


class TestDramBackend:
    def test_roundtrip(self):
        dram, __, ___ = make_backends()
        dram.write(100, b"dram bytes")
        assert dram.read(100, 10) == b"dram bytes"

    def test_zero_fill(self):
        dram, __, ___ = make_backends()
        assert dram.read(0, 4) == b"\x00\x00\x00\x00"

    def test_capacity_enforced(self):
        dram, __, ___ = make_backends()
        with pytest.raises(CapacityError):
            dram.write(dram.capacity - 2, b"overflow")

    def test_timed_read_charges_bank_latency(self):
        dram, __, sim = make_backends()

        def scenario():
            yield from dram.timed_write(0, b"abc")
            data = yield from dram.timed_read(0, 3)
            return data, sim.now

        data, elapsed = sim.run_process(scenario())
        assert data == b"abc"
        assert elapsed >= 2 * dram.bank.access_latency


class TestNvmeBackend:
    def test_sub_block_rmw(self):
        """Writes below LBA granularity must read-modify-write."""
        __, nvme, ___ = make_backends()
        nvme.write(0, b"A" * LBA_SIZE)
        nvme.write(100, b"patch")  # inside the first block
        data = nvme.read(0, LBA_SIZE)
        assert data[100:105] == b"patch"
        assert data[:100] == b"A" * 100
        assert data[105:] == b"A" * (LBA_SIZE - 105)

    def test_cross_block_write(self):
        __, nvme, ___ = make_backends()
        payload = bytes(range(256)) * 40  # 10240 bytes: spans 3 blocks
        nvme.write(LBA_SIZE - 100, payload)
        assert nvme.read(LBA_SIZE - 100, len(payload)) == payload

    def test_empty_read_write(self):
        __, nvme, ___ = make_backends()
        nvme.write(0, b"")
        assert nvme.read(0, 0) == b""

    def test_window_bounds(self):
        __, nvme, ___ = make_backends(blocks=4)
        with pytest.raises(CapacityError):
            nvme.read(nvme.capacity - 2, 10)

    def test_timed_ops_charge_flash(self):
        __, nvme, sim = make_backends()

        def scenario():
            yield from nvme.timed_write(0, b"x" * 100)
            yield from nvme.timed_read(0, 100)
            return sim.now

        elapsed = sim.run_process(scenario())
        timing = nvme.controller.flash.timing
        assert elapsed >= timing.program_latency + timing.read_latency


class TestEvalMain:
    def test_list(self, capsys):
        from repro.eval.__main__ import main

        assert main(["prog", "--list"]) == 0
        out = capsys.readouterr().out
        assert "e12" in out

    def test_unknown_id(self, capsys):
        from repro.eval.__main__ import main

        assert main(["prog", "e99"]) == 2

    def test_run_selected(self, capsys):
        from repro.eval.__main__ import main

        assert main(["prog", "e1"]) == 0
        out = capsys.readouterr().out
        assert "energy efficiency" in out
        assert "230" in out
