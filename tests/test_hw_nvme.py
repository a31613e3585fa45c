"""Tests for the NVMe controller, flash timing, and namespaces."""

import pytest

from repro.common.errors import CapacityError
from repro.hw.nvme import (
    FlashArray,
    FlashTiming,
    LBA_SIZE,
    Namespace,
    NvmeCommand,
    NvmeController,
    NvmeOpcode,
    NvmeStatus,
)
from repro.sim import Simulator


def make_ssd(sim, blocks=4096, **kwargs):
    ssd = NvmeController(sim, "nvme-0", **kwargs)
    ssd.add_namespace(Namespace(1, blocks))
    qp = ssd.create_queue_pair()
    ssd.start()
    return ssd, qp


class TestNamespace:
    def test_write_read_roundtrip(self):
        ns = Namespace(1, 100)
        ns.write_blocks(5, b"hello world")
        assert ns.read_blocks(5, 1)[:11] == b"hello world"

    def test_unwritten_reads_zero(self):
        ns = Namespace(1, 10)
        assert ns.read_blocks(0, 1) == b"\x00" * LBA_SIZE

    def test_multi_block_write(self):
        ns = Namespace(1, 10)
        data = bytes(range(256)) * 20  # 5120 bytes -> 2 blocks
        count = ns.write_blocks(0, data)
        assert count == 2
        assert ns.read_blocks(0, 2)[: len(data)] == data

    def test_out_of_range(self):
        ns = Namespace(1, 10)
        with pytest.raises(CapacityError):
            ns.read_blocks(9, 2)
        with pytest.raises(CapacityError):
            ns.write_blocks(10, b"x")


class TestFlashTiming:
    def test_read_faster_than_program(self):
        timing = FlashTiming()
        assert timing.read_latency < timing.program_latency < timing.erase_latency

    def test_parallel_reads_across_dies(self):
        sim = Simulator()
        flash = FlashArray(sim, channels=4, dies_per_channel=1)

        def read_many(pages):
            procs = [sim.process(flash.read_page(p)) for p in pages]
            yield sim.all_of(procs)
            return sim.now

        # Pages 0..3 hit distinct dies -> near-parallel.
        parallel = Simulator()
        flash_p = FlashArray(parallel, channels=4, dies_per_channel=1)

        def scenario_parallel():
            procs = [parallel.process(flash_p.read_page(p)) for p in range(4)]
            yield parallel.all_of(procs)
            return parallel.now

        t_parallel = parallel.run_process(scenario_parallel())

        serial = Simulator()
        flash_s = FlashArray(serial, channels=4, dies_per_channel=1)

        def scenario_serial():
            procs = [serial.process(flash_s.read_page(0)) for _ in range(4)]
            yield serial.all_of(procs)
            return serial.now

        t_serial = serial.run_process(scenario_serial())
        assert t_serial > 3 * t_parallel


class TestController:
    def test_write_then_read(self):
        sim = Simulator()
        ssd, qp = make_ssd(sim)

        def scenario():
            done = qp.submit(
                NvmeCommand(NvmeOpcode.WRITE, lba=10, data=b"persistent!")
            )
            completion = yield done
            assert completion.ok
            done = qp.submit(NvmeCommand(NvmeOpcode.READ, lba=10, block_count=1))
            completion = yield done
            return completion

        completion = sim.run_process(scenario())
        assert completion.ok
        assert completion.data[:11] == b"persistent!"
        assert sim.telemetry.get("nvme-0.commands_executed").value == 2

    def test_read_latency_dominated_by_flash(self):
        sim = Simulator()
        ssd, qp = make_ssd(sim)

        def scenario():
            completion = yield qp.submit(
                NvmeCommand(NvmeOpcode.READ, lba=0, block_count=1)
            )
            assert completion.ok
            return sim.now

        elapsed = sim.run_process(scenario())
        timing = ssd.flash.timing
        assert elapsed >= timing.read_latency
        assert elapsed < timing.read_latency * 2

    def test_queue_parallelism_beats_serial(self):
        """Deep queues exploit die parallelism (why NVMe queues exist)."""

        def run(depth_at_once):
            sim = Simulator()
            __, qp = make_ssd(sim)

            def scenario():
                if depth_at_once:
                    events = [
                        qp.submit(NvmeCommand(NvmeOpcode.READ, lba=i))
                        for i in range(16)
                    ]
                    yield sim.all_of(events)
                else:
                    for i in range(16):
                        yield qp.submit(NvmeCommand(NvmeOpcode.READ, lba=i))
                return sim.now

            return sim.run_process(scenario())

        assert run(True) < run(False) / 4

    def test_full_submission_queue_stalls_submissions_in_fifo_order(self):
        """Submissions beyond the queue depth wait for a slot (and keep
        their order) instead of being refused; below it they are queued
        on the spot, with no process in between."""
        sim = Simulator()
        ssd = NvmeController(sim, "nvme-0", queue_depth=2)
        ssd.add_namespace(Namespace(1, 64))
        qp = ssd.create_queue_pair()
        finished = []

        def submit(lba):
            yield qp.submit(NvmeCommand(NvmeOpcode.FLUSH, lba=lba))
            finished.append(lba)

        for lba in range(5):
            sim.process(submit(lba))
        sim.run()  # nothing drains the queue yet
        assert [c.lba for c in qp.sq.items] == [0, 1]
        assert len(qp.sq._putters) == 3 and finished == []
        ssd.start()
        sim.run()
        assert finished == [0, 1, 2, 3, 4]
        assert sim.telemetry.get("nvme-0.commands_executed").value == 5

    def test_an_unexpected_namespace_error_raises_out_of_the_run(self):
        """A command's process is spawned, not awaited: an error the
        controller does not map to a status is the original exception
        out of the run, not "process did not finish (deadlock?)"."""

        class Broken(Namespace):
            def write_blocks(self, lba, data):
                raise ZeroDivisionError("firmware bug")

        sim = Simulator()
        ssd = NvmeController(sim, "nvme-0")
        ssd.add_namespace(Broken(1, 64))
        qp = ssd.create_queue_pair()
        ssd.start()

        def write():
            yield qp.submit(NvmeCommand(NvmeOpcode.WRITE, data=b"x"))

        with pytest.raises(ZeroDivisionError, match="firmware bug"):
            sim.run_process(write())

    def test_flush_succeeds(self):
        sim = Simulator()
        __, qp = make_ssd(sim)

        def scenario():
            completion = yield qp.submit(NvmeCommand(NvmeOpcode.FLUSH))
            return completion

        assert sim.run_process(scenario()).ok

    def test_unknown_namespace_fails(self):
        sim = Simulator()
        __, qp = make_ssd(sim)

        def scenario():
            completion = yield qp.submit(
                NvmeCommand(NvmeOpcode.READ, namespace_id=9, lba=0)
            )
            return completion

        assert sim.run_process(scenario()).status is NvmeStatus.LBA_OUT_OF_RANGE

    def test_out_of_range_read_fails(self):
        sim = Simulator()
        __, qp = make_ssd(sim, blocks=8)

        def scenario():
            completion = yield qp.submit(
                NvmeCommand(NvmeOpcode.READ, lba=100, block_count=1)
            )
            return completion

        assert sim.run_process(scenario()).status is NvmeStatus.LBA_OUT_OF_RANGE

