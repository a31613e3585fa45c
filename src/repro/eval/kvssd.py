"""E12: the Willow-style RPC interface specialized across transports.

KV-SSD gets/puts over UDP, TCP, HOMA, and an RDMA fast path (reads served
one-sided from a DRAM-resident region, the Clio/KV-Direct pattern).
Expected shape: for small ops, UDP/HOMA beat TCP (no handshake, no ACK
clock); RDMA wins reads outright by skipping request processing; all agree
on values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, violated
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Simulator
from repro.storage import KvSsd, KvSsdClient, KvSsdService
from repro.telemetry import Sampler
from repro.transport import (
    HomaSocket,
    RdmaNic,
    RpcClient,
    RpcServer,
    TcpStack,
    UdpSocket,
)
from repro.transport.rpc import RpcRequest, RpcResponse

#: Sampling period for the per-transport time series (an op pair costs
#: tens of microseconds, so this lands a tick every few ops).
SAMPLE_PERIOD = 100e-6


@dataclass
class TransportPoint:
    """One E12 row: per-op latencies and throughput for a transport."""

    transport: str
    operations: int
    mean_get: float
    mean_put: float
    ops_per_second: float
    #: Exact tail latencies from the per-run get/put histograms.
    p99_get: float = 0.0
    p99_put: float = 0.0
    #: Sampler ticks taken while the workload ran.
    sampled_points: int = 0


def metrics(points) -> Dict[str, Metric]:
    tracked: Dict[str, Metric] = {}
    for p in points:
        tracked[f"{p.transport}_ops_per_second"] = Metric(
            p.ops_per_second, HIGHER, "ops/s")
        tracked[f"{p.transport}_p99_get_s"] = Metric(p.p99_get, LOWER, "s")
        tracked[f"{p.transport}_sampled_points"] = Metric(
            p.sampled_points, INFO, "samples")
    return tracked


def accept(points) -> List[str]:
    by_name = {p.transport: p for p in points}
    tcp, udp = by_name["tcp"], by_name["udp"]
    puts = [p.mean_put for p in points]
    return violated(
        (udp.mean_get < tcp.mean_get
         and by_name["homa"].mean_get < tcp.mean_get,
         "datagram transports beat TCP on small gets"),
        (by_name["rdma(read)"].mean_get < udp.mean_get,
         "one-sided RDMA reads beat every request/response transport"),
        (max(puts) / min(puts) < 1.5,
         "puts are flash-bound: within 1.5x across transports"),
    )


def _latency_probes(sim: Simulator):
    """The per-run get/put latency histograms plus a driving sampler."""
    get_hist = sim.telemetry.histogram("eval.kvssd.get_latency")
    put_hist = sim.telemetry.histogram("eval.kvssd.put_latency")
    sampler = Sampler(sim.telemetry, sim, period=SAMPLE_PERIOD)
    sampler.watch("eval.kvssd.get_latency")
    sampler.watch("eval.kvssd.put_latency")
    return get_hist, put_hist, sampler


def _make_device(sim) -> KvSsd:
    controller = NvmeController(sim, "kv-flash")
    controller.add_namespace(Namespace(1, 262144))
    return KvSsd(sim, controller, memtable_limit=10_000)


def _run_datagram(kind: str, operations: int) -> TransportPoint:
    sim = Simulator()
    net = Network(sim)
    if kind == "udp":
        server_sock = UdpSocket(sim, net.endpoint("dpu"))
        client_sock = UdpSocket(sim, net.endpoint("host"))
    else:
        server_sock = HomaSocket(sim, net.endpoint("dpu"))
        client_sock = HomaSocket(sim, net.endpoint("host"))
    device = _make_device(sim)
    KvSsdService(RpcServer(sim, server_sock), device)
    stub = KvSsdClient(RpcClient(sim, client_sock), "dpu")
    get_hist, put_hist, sampler = _latency_probes(sim)
    put_time, get_time = [0.0], [0.0]
    started = sim.now
    finished = [0.0]

    def scenario():
        for i in range(operations):
            key = f"key-{i:06d}".encode()
            t0 = sim.now
            yield from stub.put(key, b"v" * 64)
            put_time[0] += sim.now - t0
            put_hist.observe(sim.now - t0)
            t0 = sim.now
            value = yield from stub.get(key)
            get_time[0] += sim.now - t0
            get_hist.observe(sim.now - t0)
            assert value == b"v" * 64
        finished[0] = sim.now

    sampler.run(sim, scenario())
    elapsed = finished[0] - started
    return TransportPoint(
        transport=kind,
        operations=2 * operations,
        mean_get=get_time[0] / operations,
        mean_put=put_time[0] / operations,
        ops_per_second=2 * operations / elapsed,
        p99_get=get_hist.quantile(0.99),
        p99_put=put_hist.quantile(0.99),
        sampled_points=sampler.ticks,
    )


def _run_tcp(operations: int) -> TransportPoint:
    """TCP with an RPC-over-connection shim."""
    sim = Simulator()
    net = Network(sim)
    server_stack = TcpStack(sim, net.endpoint("dpu"))
    client_stack = TcpStack(sim, net.endpoint("host"))
    device = _make_device(sim)

    def server_loop():
        connection = yield server_stack.accept()
        while True:
            request, __ = yield connection.recv()
            if request.method == "kv.put":
                result = yield sim.process(device.put(*request.args))
            else:
                result = yield sim.process(device.get(*request.args))
            yield from connection.send(
                RpcResponse(request.rpc_id, ok=True, result=result), 80
            )

    sim.process(server_loop())
    get_hist, put_hist, sampler = _latency_probes(sim)
    put_time, get_time = [0.0], [0.0]
    started = [0.0]
    finished = [0.0]

    def scenario():
        connection = yield from client_stack.connect("dpu")
        started[0] = sim.now  # charge the handshake to setup, ops to ops
        rpc_id = 0
        for i in range(operations):
            key = f"key-{i:06d}".encode()
            t0 = sim.now
            yield from connection.send(
                RpcRequest(rpc_id, "kv.put", (key, b"v" * 64), 16), 128
            )
            yield connection.recv()
            put_time[0] += sim.now - t0
            put_hist.observe(sim.now - t0)
            rpc_id += 1
            t0 = sim.now
            yield from connection.send(
                RpcRequest(rpc_id, "kv.get", (key,), 80), 64
            )
            response, __ = yield connection.recv()
            assert response.result == b"v" * 64
            get_time[0] += sim.now - t0
            get_hist.observe(sim.now - t0)
            rpc_id += 1
        finished[0] = sim.now

    sampler.run(sim, scenario())
    elapsed = finished[0] - started[0]
    return TransportPoint(
        transport="tcp",
        operations=2 * operations,
        mean_get=get_time[0] / operations,
        mean_put=put_time[0] / operations,
        ops_per_second=2 * operations / elapsed,
        p99_get=get_hist.quantile(0.99),
        p99_put=put_hist.quantile(0.99),
        sampled_points=sampler.ticks,
    )


def _run_rdma(operations: int) -> TransportPoint:
    """One-sided reads from a DRAM-resident value region; writes via UDP RPC."""
    sim = Simulator()
    net = Network(sim)
    device = _make_device(sim)
    KvSsdService(RpcServer(sim, UdpSocket(sim, net.endpoint("dpu"))), device)
    stub = KvSsdClient(RpcClient(sim, UdpSocket(sim, net.endpoint("host"))), "dpu")
    server_nic = RdmaNic(sim, net.endpoint("dpu-rdma"))
    client_nic = RdmaNic(sim, net.endpoint("host-rdma"))
    # The DPU exposes a value cache region; offsets assigned per key.
    region_bytes = bytearray(operations * 64)
    region = server_nic.register_region(region_bytes)
    get_hist, put_hist, sampler = _latency_probes(sim)
    put_time, get_time = [0.0], [0.0]
    started = sim.now
    finished = [0.0]

    def scenario():
        for i in range(operations):
            key = f"key-{i:06d}".encode()
            value = bytes([i % 256]) * 64
            t0 = sim.now
            yield from stub.put(key, value)
            region_bytes[i * 64 : (i + 1) * 64] = value  # cache fill
            put_time[0] += sim.now - t0
            put_hist.observe(sim.now - t0)
            t0 = sim.now
            data = yield from client_nic.read("dpu-rdma", region.rkey, i * 64, 64)
            get_time[0] += sim.now - t0
            get_hist.observe(sim.now - t0)
            assert data == value
        finished[0] = sim.now

    sampler.run(sim, scenario())
    elapsed = finished[0] - started
    return TransportPoint(
        transport="rdma(read)",
        operations=2 * operations,
        mean_get=get_time[0] / operations,
        mean_put=put_time[0] / operations,
        ops_per_second=2 * operations / elapsed,
        p99_get=get_hist.quantile(0.99),
        p99_put=put_hist.quantile(0.99),
        sampled_points=sampler.ticks,
    )


def run_kvssd(operations: int = 100) -> List[TransportPoint]:
    return [
        _run_datagram("udp", operations),
        _run_tcp(operations),
        _run_datagram("homa", operations),
        _run_rdma(operations),
    ]


def format_kvssd(points: List[TransportPoint]) -> str:
    table = Table(
        "E12: KV-SSD over specialized transports (Willow-style RPC)",
        ["transport", "ops", "mean get", "p99 get", "mean put", "p99 put",
         "ops/s", "samples"],
    )
    for p in points:
        table.add_row(
            p.transport, p.operations,
            f"{p.mean_get * 1e6:.1f} us",
            f"{p.p99_get * 1e6:.1f} us",
            f"{p.mean_put * 1e6:.1f} us",
            f"{p.p99_put * 1e6:.1f} us",
            f"{p.ops_per_second:.0f}",
            p.sampled_points,
        )
    return table.render()
