#!/usr/bin/env python3
"""A Corfu shared log on network-attached SSDs (paper §2.4, workload 3).

Three CPU-free services — a sequencer and two chain-replicated log units
backed by NVMe flash — serve concurrent writers. The script appends from
several clients, kills the head replica, and keeps reading.

Run: ``python examples/corfu_log.py``
"""

from repro.common.units import format_time
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Simulator
from repro.storage import CorfuClient, CorfuLogUnit, CorfuSequencer
from repro.transport import RpcClient, RpcServer, UdpSocket

WRITERS = 4
APPENDS_PER_WRITER = 25


def main() -> None:
    sim = Simulator()
    net = Network(sim)

    CorfuSequencer(RpcServer(sim, UdpSocket(sim, net.endpoint("sequencer"))))
    units = []
    for i in range(2):
        controller = NvmeController(sim, f"log-flash-{i}")
        controller.add_namespace(Namespace(1, 65536))
        units.append(CorfuLogUnit(
            RpcServer(sim, UdpSocket(sim, net.endpoint(f"unit{i}"))), controller,
        ))

    clients = [
        CorfuClient(
            RpcClient(sim, UdpSocket(sim, net.endpoint(f"writer{i}"))),
            "sequencer", ["unit0", "unit1"],
        )
        for i in range(WRITERS)
    ]

    def writer(index, corfu):
        positions = []
        for i in range(APPENDS_PER_WRITER):
            position = yield from corfu.append(
                f"writer{index} event {i}".encode()
            )
            positions.append(position)
        return positions

    start = sim.now
    procs = [sim.process(writer(i, c)) for i, c in enumerate(clients)]
    sim.run()
    elapsed = sim.now - start
    total = WRITERS * APPENDS_PER_WRITER
    all_positions = sorted(p for proc in procs for p in proc.value)
    print(f"{WRITERS} writers appended {total} entries in "
          f"{format_time(elapsed)} ({total / elapsed:.0f} appends/s)")
    print(f"positions are unique and dense: "
          f"{all_positions == list(range(total))}")

    # Fault injection: lose the head replica mid-flight.
    print("\nkilling log unit 0 (chain head)...")
    units[0].fail()
    reader = clients[0]

    def read_some():
        samples = []
        for position in (0, total // 2, total - 1):
            data = yield from reader.read(position)
            samples.append((position, data))
        tail = yield from reader.tail()
        return samples, tail

    samples, tail = sim.run_process(read_some())
    for position, data in samples:
        print(f"  read[{position}] from replica: {data!r}")
    print(f"log tail: {tail}; reads survive the failure via replica 1")


if __name__ == "__main__":
    main()
