"""Tests for the CPU-centric baseline and the power/volume models."""

import pytest

from repro.baseline import (
    ConventionalServer,
    CpuCentricDatapath,
    CpuCosts,
    CpuModel,
    OsModel,
    SUPERMICRO_X12,
)
from repro.ebpf import BpfVm, assemble
from repro.hw.nvme import Namespace, NvmeController
from repro.power import (
    HYPERION_POWER,
    HYPERION_VOLUME,
    volume_ratio,
)
from repro.power.energy import total_tdp
from repro.power.volume import DeviceVolume
from repro.baseline.server import SUPERMICRO_X12 as SERVER
from repro.sim import Simulator


class TestCpuModel:
    def test_jitter_varies_execution_time(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        times = {cpu.execution_time(1000) for _ in range(50)}
        assert len(times) > 10  # jitter means no two runs alike

    def test_more_instructions_take_longer(self):
        sim = Simulator()
        cpu = CpuModel(sim, costs=CpuCosts(jitter_fraction=0.0,
                                           preemption_probability=0.0))
        assert cpu.execution_time(10_000) > cpu.execution_time(100)

    def test_execute_ebpf_advances_time(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        vm = BpfVm(assemble("mov r0, 7\nexit"))

        def scenario():
            result = yield from cpu.execute_ebpf(vm)
            return result.return_value, sim.now

        value, elapsed = sim.run_process(scenario())
        assert value == 7
        assert elapsed > 0

    def test_memcpy_bandwidth(self):
        cpu = CpuModel(Simulator())
        # 1 ms at 12 GB/s
        assert cpu.costs.memcpy_time(12_000_000) == pytest.approx(1e-3)


class TestOsModel:
    def test_receive_packet_charges_interrupt_syscall_copy(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        os_model = OsModel(sim, cpu)

        def scenario():
            yield from os_model.receive_packet(1500)
            return sim.now

        elapsed = sim.run_process(scenario())
        assert elapsed > os_model.costs.interrupt_latency
        assert os_model.interrupts == 1
        assert os_model.syscalls == 1
        assert os_model.bytes_copied == 1500

    def test_storage_write_includes_block_layer(self):
        sim = Simulator()
        os_model = OsModel(sim, CpuModel(sim))

        def scenario():
            yield from os_model.write_storage(4096)
            return sim.now

        elapsed = sim.run_process(scenario())
        assert elapsed >= os_model.costs.block_layer_latency


class TestCpuCentricDatapath:
    def test_packet_with_persistence(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        os_model = OsModel(sim, cpu)
        ssd = NvmeController(sim, "ssd")
        ssd.add_namespace(Namespace(1, 1024))
        path = CpuCentricDatapath(sim, cpu, os_model, ssd=ssd)
        vm = BpfVm(assemble("mov r0, 1\nexit"))

        def scenario():
            verdicts = []
            for _ in range(4):  # 4 x 1500 B overflows one 4 KiB page
                verdict = yield from path.process_packet(
                    vm, b"x" * 1500, persist=True
                )
                verdicts.append(verdict)
            return verdicts, sim.now

        verdicts, elapsed = sim.run_process(scenario())
        assert verdicts == [1, 1, 1, 1]
        # A page-cache flush hit flash: the path must cost >500 us total.
        assert elapsed > 500e-6
        assert path.packets_processed == 4
        assert path._log_lba >= 1

    def test_non_persistent_packet_cheaper(self):
        def run(persist):
            sim = Simulator()
            cpu = CpuModel(sim)
            os_model = OsModel(sim, cpu)
            ssd = NvmeController(sim, "ssd")
            ssd.add_namespace(Namespace(1, 1024))
            path = CpuCentricDatapath(sim, cpu, os_model, ssd=ssd)
            vm = BpfVm(assemble("mov r0, 1\nexit"))

            def scenario():
                yield from path.process_packet(vm, b"x" * 100, persist=persist)
                return sim.now

            return sim.run_process(scenario())

        assert run(False) < run(True)


class TestServerAndPower:
    def test_x12_envelope(self):
        assert SUPERMICRO_X12.max_tdp_watts == pytest.approx(1600.0)

    def test_hyperion_tdp_matches_paper(self):
        assert total_tdp(HYPERION_POWER) == pytest.approx(230.0)

    def test_energy_efficiency_in_paper_band(self):
        ratio = SUPERMICRO_X12.max_tdp_watts / total_tdp(HYPERION_POWER)
        assert 4 <= ratio <= 8

    def test_volume_compactness_in_paper_band(self):
        server_volume = DeviceVolume("x12", SUPERMICRO_X12.dimensions_mm)
        ratio = volume_ratio(server_volume, HYPERION_VOLUME)
        assert 5 <= ratio <= 10
