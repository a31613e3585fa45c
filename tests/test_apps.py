"""Tests for the §2.4 application workloads."""

import pytest

from repro.apps import (
    AnalyticsQuery,
    Fail2BanBaseline,
    Fail2BanDpu,
    LoadBalancer,
    RemoteTreeService,
    build_fail2ban_program,
    client_side_lookup,
    cpu_scan,
    dpu_scan,
    generate_connections,
    generate_packet_trace,
    offloaded_lookup,
)
from repro.apps.fail2ban import BAN_MAP_FD, VERDICT_BAN, VERDICT_PASS, PacketRecord
from repro.baseline import CpuCentricDatapath, CpuModel, OsModel
from repro.common.errors import ProtocolError
from repro.dpu import HyperionDpu
from repro.ebpf import BpfVm, HashMap, Verifier
from repro.formats import RecordBatch, Schema, write_table
from repro.fs import HyperExtFs
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket


def booted_dpu(sim, net=None):
    net = net if net is not None else Network(sim)
    dpu = HyperionDpu(sim, net, ssd_blocks=16384)
    sim.run_process(dpu.boot())
    return dpu


class TestFail2BanProgram:
    def test_passes_verifier(self):
        report = Verifier().verify(build_fail2ban_program())
        assert report.ok, report.reject_reason()

    def test_semantics_in_vm(self):
        program = build_fail2ban_program(threshold=2)
        vm = BpfVm(program, maps={BAN_MAP_FD: HashMap(8, 8, 1024)})
        attacker = PacketRecord(src_ip=99, auth_failed=True, size=100)
        verdicts = [vm.run(attacker.context()).return_value for _ in range(5)]
        # Counts 1,2 pass; from count 3 (> threshold 2) the source is banned.
        assert verdicts[:2] == [VERDICT_PASS, VERDICT_PASS]
        assert set(verdicts[2:]) == {VERDICT_BAN}

    def test_benign_source_never_banned(self):
        program = build_fail2ban_program(threshold=2)
        vm = BpfVm(program, maps={BAN_MAP_FD: HashMap(8, 8, 1024)})
        benign = PacketRecord(src_ip=5, auth_failed=False, size=100)
        for _ in range(20):
            assert vm.run(benign.context()).return_value == VERDICT_PASS

    def test_instruction_and_helper_counts_per_path(self):
        """(instructions_executed, helper_calls) drive the baseline's CPU
        time: pinned per path so a mis-translated slot fails by name."""
        program = build_fail2ban_program(threshold=2)
        vm = BpfVm(program, maps={BAN_MAP_FD: HashMap(8, 8, 1024)})
        attacker = PacketRecord(src_ip=99, auth_failed=True, size=100).context()
        runs = [vm.run(attacker) for _ in range(3)]
        counts = [(r.return_value, r.instructions_executed, r.helper_calls)
                  for r in runs]
        assert counts == [
            (VERDICT_PASS, 19, 2),  # first sight: lookup miss + update
            (VERDICT_PASS, 15, 1),  # found, count 2 <= threshold
            (VERDICT_BAN, 15, 1),  # found, count 3 > threshold
        ]


class TestFail2BanDeployments:
    def test_dpu_bans_attackers(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        app = Fail2BanDpu(sim, dpu, threshold=2)
        attacker = PacketRecord(src_ip=7, auth_failed=True, size=256)

        def scenario():
            verdicts = []
            for _ in range(5):
                verdict = yield from app.process_packet(attacker)
                verdicts.append(verdict)
            return verdicts

        verdicts = sim.run_process(scenario())
        assert VERDICT_BAN in verdicts
        assert app.banned_packets >= 1
        assert 7 in app.banned_sources()

    def test_dpu_persists_log(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        app = Fail2BanDpu(sim, dpu)

        def scenario():
            for packet in generate_packet_trace(300):  # >256 records/block
                yield from app.process_packet(packet)
            yield from app.flush_log()

        sim.run_process(scenario())
        log_namespace = app._log_ssd.namespaces[1]
        assert len(log_namespace._blocks) >= 2

    def test_first_flushed_block_is_the_trace(self):
        """256 sixteen-byte records fill one 4 KiB block: read LBA 0 back."""
        sim = Simulator()
        app = Fail2BanDpu(sim, booted_dpu(sim))
        trace = generate_packet_trace(300)

        def scenario():
            for packet in trace:
                yield from app.process_packet(packet)
            yield from app.flush_log()
            return (yield app._log_qp.submit(
                NvmeCommand(NvmeOpcode.READ, lba=0, block_count=2)
            ))

        completion = sim.run_process(scenario())
        assert completion.ok
        records = b"".join(p.context().ljust(16, b"\x00") for p in trace)
        assert completion.data[:4096] == records[:4096]
        assert completion.data[4096:] == records[4096:].ljust(4096, b"\x00")

    def test_overlapping_log_flushes_each_get_their_own_block(self):
        """Two streams share the II-pipelined port, so their block
        flushes overlap: 2 x 1024 sixteen-byte records are 8 blocks."""
        sim = Simulator()
        app = Fail2BanDpu(sim, booted_dpu(sim))

        def stream(seed):
            for packet in generate_packet_trace(1024, seed=seed):
                yield from app.process_packet(packet)

        sim.process(stream(1))
        sim.process(stream(2))
        sim.run()
        assert app.banned_packets + app.passed_packets == 2048
        assert app._log_lba == 8
        assert len(app._log_ssd.namespaces[1]._blocks) == 8

    def test_failed_log_write_is_a_named_error(self):
        sim = Simulator()
        app = Fail2BanDpu(sim, booted_dpu(sim))
        app._log_lba = 16384  # one past the namespace

        def scenario():
            yield from app.process_packet(PacketRecord(1, False, 64))
            yield from app.flush_log()

        with pytest.raises(ProtocolError, match="LBA 16384: LBA_OUT_OF_RANGE"):
            sim.run_process(scenario())

    def test_baseline_failed_log_write_is_a_named_error(self):
        sim = Simulator()
        cpu = CpuModel(sim)
        ssd = NvmeController(sim, "ssd")
        ssd.add_namespace(Namespace(1, 1))  # room for one 4 KiB page only
        path = CpuCentricDatapath(sim, cpu, OsModel(sim, cpu), ssd=ssd)
        app = Fail2BanBaseline(sim, path)

        def scenario():
            for packet in generate_packet_trace(512):
                yield from app.process_packet(packet)

        with pytest.raises(ProtocolError, match="LBA 1: LBA_OUT_OF_RANGE"):
            sim.run_process(scenario())

    def test_baseline_overlapping_flushes_each_get_their_own_block(self):
        """Half-page packets: while one caller waits on its flush the
        other fills and flushes the next page."""
        sim = Simulator()
        cpu = CpuModel(sim)
        ssd = NvmeController(sim, "ssd")
        ssd.add_namespace(Namespace(1, 64))
        path = CpuCentricDatapath(sim, cpu, OsModel(sim, cpu), ssd=ssd)
        vm = BpfVm(build_fail2ban_program(), maps={
            BAN_MAP_FD: HashMap(key_size=8, value_size=8, max_entries=16)})

        def stream():
            for _ in range(8):
                yield from path.process_packet(vm, bytes(2048), persist=True)

        sim.process(stream())
        sim.process(stream())
        sim.run()
        assert path.packets_processed == 16
        assert path._log_lba == 8
        assert len(ssd.namespaces[1]._blocks) == 8

    def test_baseline_agrees_with_dpu(self):
        trace = generate_packet_trace(200, seed=3)

        def run_dpu():
            sim = Simulator()
            app = Fail2BanDpu(sim, booted_dpu(sim), threshold=3)
            started = sim.now  # exclude one-time boot

            def scenario():
                for packet in trace:
                    yield from app.process_packet(packet)

            sim.run_process(scenario())
            return app.banned_packets, sim.now - started

        def run_baseline():
            sim = Simulator()
            cpu = CpuModel(sim)
            ssd = NvmeController(sim, "ssd")
            ssd.add_namespace(Namespace(1, 16384))
            path = CpuCentricDatapath(sim, cpu, OsModel(sim, cpu), ssd=ssd)
            app = Fail2BanBaseline(sim, path, threshold=3)

            def scenario():
                for packet in trace:
                    yield from app.process_packet(packet)

            sim.run_process(scenario())
            return app.banned_packets, sim.now

        dpu_banned, dpu_time = run_dpu()
        base_banned, base_time = run_baseline()
        assert dpu_banned == base_banned  # identical verdicts
        assert dpu_time < base_time  # the DPU path is faster end-to-end


class TestLoadBalancer:
    def test_flows_stick_with_overflow(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        lb = LoadBalancer(sim, dpu, dram_table_entries=16, policy="overflow")
        trace = generate_connections(2000, flow_count=200)

        def scenario():
            assignments = {}
            for packet in trace:
                backend = yield from lb.handle_packet(packet)
                if packet.flow_id in assignments:
                    assert assignments[packet.flow_id] == backend
                assignments[packet.flow_id] = backend

        sim.run_process(scenario())
        assert lb.broken_connections == 0
        assert lb.cold_hits > 0  # the overflow path was exercised

    def test_drop_policy_breaks_connections(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        lb = LoadBalancer(sim, dpu, dram_table_entries=16, policy="drop")
        trace = generate_connections(2000, flow_count=200)

        def scenario():
            for packet in trace:
                yield from lb.handle_packet(packet)

        sim.run_process(scenario())
        assert lb.broken_connections > 0

    def test_hot_flows_mostly_hit_dram(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        lb = LoadBalancer(sim, dpu, dram_table_entries=64, policy="overflow")
        trace = generate_connections(3000, flow_count=500)

        def scenario():
            for packet in trace:
                yield from lb.handle_packet(packet)

        sim.run_process(scenario())
        assert lb.hot_hits / lb.packets > 0.5

    def test_state_accumulates_on_flash(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        lb = LoadBalancer(sim, dpu, dram_table_entries=8, policy="overflow")

        def scenario():
            for packet in generate_connections(500, flow_count=300):
                yield from lb.handle_packet(packet)

        sim.run_process(scenario())
        assert lb.state_bytes_on_flash() > 0

    def test_unknown_policy(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        with pytest.raises(ValueError):
            LoadBalancer(sim, dpu, policy="magic")


class TestPointerChase:
    def setup_service(self, sim, keys=500):
        net = Network(sim)
        server = RpcServer(sim, UdpSocket(sim, net.endpoint("tree-dpu")))
        service = RemoteTreeService(sim, server, order=4)
        service.populate(keys)
        client = RpcClient(sim, UdpSocket(sim, net.endpoint("client")))
        return service, client

    def test_both_paths_return_same_value(self):
        sim = Simulator()
        service, client = self.setup_service(sim)

        def scenario():
            via_chase, chase_rtts = yield from client_side_lookup(
                client, "tree-dpu", 123
            )
            via_offload, offload_rtts = yield from offloaded_lookup(
                client, "tree-dpu", 123
            )
            return via_chase, chase_rtts, via_offload, offload_rtts

        chase_value, chase_rtts, offload_value, offload_rtts = sim.run_process(
            scenario()
        )
        assert chase_value == offload_value == "value-123"
        assert offload_rtts == 1
        assert chase_rtts == service.tree.height + 1

    def test_offload_is_faster(self):
        sim = Simulator()
        service, client = self.setup_service(sim)

        def timed(fn, key):
            start = sim.now

            def proc():
                yield from fn(client, "tree-dpu", key)
                return sim.now - start

            return sim.run_process(proc())

        chase_time = timed(client_side_lookup, 250)
        offload_time = timed(offloaded_lookup, 250)
        assert offload_time < chase_time / 2

    def test_missing_key(self):
        sim = Simulator()
        service, client = self.setup_service(sim, keys=10)

        def scenario():
            value, __ = yield from client_side_lookup(client, "tree-dpu", 9999)
            return value

        assert sim.run_process(scenario()) is None


class TestAnalytics:
    def make_dataset(self, rows=500):
        schema = Schema.of(id="int64", amount="float64", region="string")
        batch = RecordBatch.from_rows(
            schema,
            [(i, float(i), ["eu", "us"][i % 2]) for i in range(rows)],
        )
        return write_table(batch, rows_per_group=100)

    def query(self):
        return AnalyticsQuery(
            path="/data/sales.parquet",
            project=["amount"],
            aggregate_column="amount",
            aggregate="sum",
            predicate_column="id",
            predicate_low=100,
            predicate_high=199,
        )

    def test_dpu_and_cpu_agree(self):
        sim = Simulator()
        dpu = booted_dpu(sim)
        fs = HyperExtFs.mkfs(dpu.ssds[0].namespaces[1])
        fs.mkdir("/data")
        fs.create_file("/data/sales.parquet", self.make_dataset())

        def scenario():
            dpu_result = yield from dpu_scan(sim, dpu, fs, self.query())
            cpu = CpuModel(sim)
            cpu_result = yield from cpu_scan(
                sim, cpu, OsModel(sim, cpu), fs, self.query()
            )
            return dpu_result, cpu_result

        dpu_result, cpu_result = sim.run_process(scenario())
        expected = float(sum(range(100, 200)))
        assert dpu_result.value == pytest.approx(expected)
        assert cpu_result.value == pytest.approx(expected)

    def test_dpu_moves_fewer_bytes(self):
        """Projection + pushdown at the device vs whole-file host read."""
        sim = Simulator()
        dpu = booted_dpu(sim)
        fs = HyperExtFs.mkfs(dpu.ssds[0].namespaces[1])
        fs.mkdir("/data")
        fs.create_file("/data/sales.parquet", self.make_dataset(2000))

        def scenario():
            dpu_result = yield from dpu_scan(sim, dpu, fs, self.query())
            cpu = CpuModel(sim)
            cpu_result = yield from cpu_scan(
                sim, cpu, OsModel(sim, cpu), fs, self.query()
            )
            return dpu_result, cpu_result

        dpu_result, cpu_result = sim.run_process(scenario())
        assert dpu_result.rows_scanned <= cpu_result.rows_scanned
