"""Tests for the CPU-centric baseline and the power/volume models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fail2ban import (
    BAN_MAP_FD,
    VERDICT_BAN,
    VERDICT_PASS,
    PacketRecord,
    build_fail2ban_program,
)
from repro.baseline import (
    ConventionalServer,
    CpuCentricDatapath,
    CpuCosts,
    CpuModel,
    OsModel,
    SUPERMICRO_X12,
)
from repro.ebpf import BpfVm, HashMap, assemble
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
from tests.baseline_reference import (
    ReferenceDatapath,
    execution_time,
    memcpy_time,
)


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

    def test_run_ends_its_jittered_time_after_the_instant(self):
        cpu = CpuModel(Simulator())
        vm = BpfVm(assemble("mov r0, 7\nexit"))
        result, when = cpu.run(vm, b"", 1.0)
        assert result.return_value == 7
        assert when > 1.0

    def test_memcpy_bandwidth(self):
        cpu = CpuModel(Simulator())
        # 1 ms at 12 GB/s
        assert cpu.costs.memcpy_time(12_000_000) == pytest.approx(1e-3)


class TestOsModel:
    def test_receive_packet_charges_interrupt_syscall_copy(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        os_model = OsModel(sim, cpu)
        elapsed = os_model.receive_packet(0.0, 1500)
        assert elapsed > os_model.costs.interrupt_latency
        assert os_model.interrupts == 1
        assert os_model.syscalls == 1
        assert os_model.bytes_copied == 1500

    def test_storage_write_includes_block_layer(self):
        sim = Simulator()
        os_model = OsModel(sim, CpuModel(sim))
        elapsed = os_model.write_storage(0.0, 4096)
        assert elapsed >= os_model.costs.block_layer_latency

    @pytest.mark.parametrize("charge", [
        ("receive_packet", ("interrupt_latency", "syscall_latency"), (1, 1)),
        ("write_storage", ("syscall_latency", "block_layer_latency"), (1, 0)),
        ("read_storage", ("syscall_latency", "block_layer_latency"), (1, 0)),
    ])
    def test_each_charge_adds_its_latencies_left_to_right(self, charge):
        """``when += a; when += b; when += copy`` — the float three
        sleeps reached. Summing the latencies first differs in the last
        bit on some of these instants, so that mutant fails here. Each
        charge counts its syscalls, interrupts and copied bytes."""
        name, latencies, (syscalls, interrupts) = charge
        sim = Simulator()
        cpu = CpuModel(sim)
        os_model = OsModel(sim, cpu)
        summed_first_differs = False
        charged = copied = 0
        for when in (0.0, 1e-6, 0.1, 0.3, 1.7, 12.345678):
            for size in (0, 1, 512, 1500, 4096, 65536):
                chain = when
                for latency in latencies:
                    chain += getattr(os_model.costs, latency)
                copy = cpu.costs.memcpy_time(size)
                chain += copy
                assert getattr(os_model, name)(when, size) == chain
                charged, copied = charged + 1, copied + size
                counters = (os_model.syscalls, os_model.interrupts,
                            os_model.bytes_copied)
                assert counters == (charged * syscalls, charged * interrupts, copied)
                total = sum(getattr(os_model.costs, latency)
                            for latency in latencies) + copy
                summed_first_differs |= when + total != chain
        assert summed_first_differs


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
                verdict = yield from path.process_packet(vm, b"x" * 1500)
                verdicts.append(verdict)
            return verdicts, sim.now

        verdicts, elapsed = sim.run_process(scenario())
        assert verdicts == [1, 1, 1, 1]
        # A page-cache flush hit flash: the path must cost >500 us total.
        assert elapsed > 500e-6
        assert path._log_lba >= 1

    def test_non_persistent_packet_cheaper(self):
        def run(persist):
            sim = Simulator()
            cpu = CpuModel(sim)
            os_model = OsModel(sim, cpu)
            ssd = None
            if persist:
                ssd = NvmeController(sim, "ssd")
                ssd.add_namespace(Namespace(1, 1024))
            path = CpuCentricDatapath(sim, cpu, os_model, ssd=ssd)
            vm = BpfVm(assemble("mov r0, 1\nexit"))

            def scenario():
                yield from path.process_packet(vm, b"x" * 100)
                return sim.now

            return sim.run_process(scenario())

        assert run(False) < run(True)

    def test_concurrent_callers_run_their_programs_in_arrival_order(self):
        """A 64 KiB packet arrives first, a 64 B one 1 us later: the small
        packet's receive completes first, but the programs run in arrival
        order, when each operation starts."""
        sim = Simulator()
        cpu = CpuModel(sim)
        path = CpuCentricDatapath(sim, cpu, OsModel(sim, cpu))
        ran = []

        vm = BpfVm(assemble("mov r0, 1\nexit"))
        compiled = vm.run

        def recording(context=b""):
            ran.append(len(context))
            return compiled(context)

        vm.run = recording
        costs = path.os.costs

        def received(offset, size):
            return (offset + costs.interrupt_latency + costs.syscall_latency
                    + cpu.costs.memcpy_time(size))

        assert received(1e-6, 64) < received(0.0, 65536)

        def caller(offset, size):
            yield sim.timeout(offset)
            yield from path.process_packet(vm, bytes(size))

        sim.process(caller(0.0, 65536))
        sim.process(caller(1e-6, 64))
        sim.run()
        assert ran == [65536, 64]


def drive_datapath(datapath_class, costs, seed, packets, with_ssd=True):
    """One caller pushes *packets* (gap, size, source, auth failed)
    through fail2ban back to back, persisting them when *with_ssd*;
    everything either datapath may change, per packet and at the end."""
    sim = Simulator()
    cpu = CpuModel(sim, costs=costs, rng=random.Random(seed))
    os_model = OsModel(sim, cpu)
    ssd = NvmeController(sim, "ssd")
    ssd.add_namespace(Namespace(1, 64))
    path = datapath_class(sim, cpu, os_model, ssd=ssd if with_ssd else None)
    ban_map = HashMap(key_size=8, value_size=8, max_entries=16)
    vm = BpfVm(build_fail2ban_program(), maps={BAN_MAP_FD: ban_map})
    seen = []

    def caller():
        for gap, size, source, failed in packets:
            yield sim.timeout(gap)
            context = PacketRecord(source, failed, size).context()
            verdict = yield from path.process_packet(
                vm, context.ljust(size, b"\x00"))
            seen.append((sim.now, verdict))

    sim.run_process(caller())
    return (seen, os_model.syscalls, os_model.interrupts,
            os_model.bytes_copied, cpu.rng.getstate(),
            path._log_lba, bytes(path._page_cache),
            sorted(ssd.namespaces[1]._blocks.items()), sorted(ban_map.items()))


class TestFoldAgainstTheChain:
    """The single sleep per packet against the three-sleep chain it
    replaced (``tests/baseline_reference.py``): with jitter and
    preemption on, misses, hits and bans (two sources, so the threshold
    is crossed) and page flushes, every instant, verdict, counter, RNG
    state and LBA must be bit-identical."""

    @settings(max_examples=60, deadline=None)
    @given(
        costs=st.builds(
            CpuCosts,
            jitter_fraction=st.floats(min_value=0.0, max_value=0.5),
            preemption_probability=st.floats(min_value=0.0, max_value=1.0),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        with_ssd=st.booleans(),
        packets=st.lists(
            st.tuples(
                st.one_of(st.just(0.0),
                          st.floats(min_value=0.0, max_value=1e-3)),
                st.integers(min_value=16, max_value=3000),  # size
                st.integers(min_value=1, max_value=2),      # source
                st.booleans(),                              # auth failed
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_same_floats_same_state(self, costs, seed, packets, with_ssd):
        assert (drive_datapath(CpuCentricDatapath, costs, seed, packets,
                               with_ssd)
                == drive_datapath(ReferenceDatapath, costs, seed, packets,
                                  with_ssd))

    def test_a_trace_with_every_verdict_and_a_flush(self):
        """The Hypothesis run above cannot pass on trivial inputs: this
        fixed trace bans, passes and flushes a page."""
        packets = [(1e-5, 1500, 1, True)] * 5 + [
            (0.0, 700, 2, False), (3e-6, 64, 1, False)]
        folded = drive_datapath(CpuCentricDatapath, CpuCosts(), 11, packets)
        assert folded == drive_datapath(ReferenceDatapath, CpuCosts(), 11,
                                        packets)
        verdicts = [verdict for _when, verdict in folded[0]]
        assert VERDICT_BAN in verdicts and VERDICT_PASS in verdicts
        assert folded[5] >= 1  # a page reached flash


class TestRatesAgainstTheFormulas:
    """``CpuModel`` and ``OsModel`` charge from rates computed once; the
    floats must be the old formulas' (``tests/baseline_reference.py``)
    bit for bit, from the same draws, leaving the RNG in the same state."""

    @settings(max_examples=100, deadline=None)
    @given(
        costs=st.builds(
            CpuCosts,
            clock_hz=st.floats(min_value=1e8, max_value=1e10),
            instructions_per_cycle=st.floats(min_value=0.25, max_value=8.0),
            jitter_fraction=st.floats(min_value=0.0, max_value=1.0),
            preemption_probability=st.floats(min_value=0.0, max_value=1.0),
            memcpy_bandwidth=st.floats(min_value=1e6, max_value=1e12),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        runs=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
        charges=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=1e3),  # when
            st.integers(min_value=0, max_value=1 << 20),  # size
        ), max_size=8),
    )
    def test_execution_time_and_charges_are_the_old_floats(
            self, costs, seed, runs, charges):
        sim = Simulator()
        cpu = CpuModel(sim, costs=costs, rng=random.Random(seed))
        rng = random.Random(seed)
        for instructions in runs:
            assert (cpu.execution_time(instructions).hex()
                    == execution_time(costs, rng, instructions).hex())
        assert cpu.rng.getstate() == rng.getstate()
        os_model = OsModel(sim, cpu)
        latencies = os_model.costs
        for when, size in charges:
            copy = memcpy_time(costs, size)
            received = when + latencies.interrupt_latency
            received += latencies.syscall_latency
            stored = when + latencies.syscall_latency
            stored += latencies.block_layer_latency
            assert (os_model.receive_packet(when, size).hex()
                    == (received + copy).hex())
            assert (os_model.write_storage(when, size).hex()
                    == os_model.read_storage(when, size).hex()
                    == (stored + copy).hex())


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
