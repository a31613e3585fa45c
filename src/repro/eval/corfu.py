"""E8: the Corfu shared log on network-attached flash (paper §2.4).

Multi-client append throughput scaling, tail reads, and chain-replicated
fault injection. Expected shape: throughput grows with clients until the
(single) sequencer round-trip and flash program bandwidth saturate; reads
survive one replica failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.eval.report import HIGHER, INFO, Metric, Table, violated
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Simulator
from repro.storage import CorfuClient, CorfuLogUnit, CorfuSequencer
from repro.transport import RpcClient, RpcServer, UdpSocket

#: Log units each append is chained through.
REPLICAS = 2


@dataclass
class CorfuPoint:
    """One E8 point: append throughput and failover verdict at a client count."""

    clients: int
    appends: int
    duration: float
    throughput: float
    failover_reads_ok: bool


def metrics(points) -> Dict[str, Metric]:
    busiest = max(points, key=lambda p: p.clients)
    return {
        "peak_throughput_aps": Metric(busiest.throughput, HIGHER, "appends/s"),
        "failover_reads_ok": Metric(
            float(all(p.failover_reads_ok for p in points)), INFO, "bool"),
    }


def accept(points) -> List[str]:
    throughputs = [p.throughput for p in points]  # in client-count order
    return violated(
        (throughputs == sorted(throughputs),
         "append throughput grows with concurrent clients"),
        (throughputs[-1] > 4 * throughputs[0],
         "8 clients append more than 4x faster than one"),
        (all(p.failover_reads_ok for p in points),
         "the log stays readable after losing the head replica"),
    )


def _run_point(client_count: int, appends_per_client: int) -> CorfuPoint:
    sim = Simulator()
    net = Network(sim)
    CorfuSequencer(RpcServer(sim, UdpSocket(sim, net.endpoint("sequencer"))))
    units: List[CorfuLogUnit] = []
    unit_names = []
    for i in range(REPLICAS):
        name = f"unit{i}"
        controller = NvmeController(sim, f"log-ssd-{i}")
        controller.add_namespace(Namespace(1, 262144))
        units.append(
            CorfuLogUnit(
                RpcServer(sim, UdpSocket(sim, net.endpoint(name))), controller
            )
        )
        unit_names.append(name)
    clients = [
        CorfuClient(
            RpcClient(sim, UdpSocket(sim, net.endpoint(f"client{i}"))),
            "sequencer",
            unit_names,
        )
        for i in range(client_count)
    ]
    started = sim.now

    def appender(corfu, count):
        for i in range(count):
            yield from corfu.append(b"log-entry-" + str(i).encode())

    procs = [
        sim.process(appender(client, appends_per_client)) for client in clients
    ]
    sim.run()
    duration = sim.now - started
    total_appends = client_count * appends_per_client

    # Fault injection: kill the head, read the whole log from the replica.
    units[0].fail()
    reader = clients[0]

    def verify_reads():
        ok = True
        for position in range(0, total_appends, max(1, total_appends // 10)):
            data = yield from reader.read(position)
            if not data.startswith(b"log-entry-"):
                ok = False
        return ok

    failover_ok = sim.run_process(verify_reads())
    return CorfuPoint(
        clients=client_count,
        appends=total_appends,
        duration=duration,
        throughput=total_appends / duration,
        failover_reads_ok=failover_ok,
    )


def run_corfu(
    client_counts=(1, 2, 4, 8), appends_per_client: int = 50
) -> List[CorfuPoint]:
    return [_run_point(n, appends_per_client) for n in client_counts]


def format_corfu(points: List[CorfuPoint]) -> str:
    table = Table(
        "E8: Corfu shared log on network-attached flash "
        "(chain replication, 2 replicas)",
        ["clients", "appends", "duration", "appends/s", "failover reads"],
    )
    for p in points:
        table.add_row(
            p.clients, p.appends, f"{p.duration * 1e3:.1f} ms",
            f"{p.throughput:.0f}", "ok" if p.failover_reads_ok else "FAILED",
        )
    return table.render()
