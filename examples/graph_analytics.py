#!/usr/bin/env python3
"""Graph analytics on a DPU — one of the paper's §4 "killer workloads".

A CSR graph lives in durable segments on a Hyperion DPU. The script runs
BFS shortest-path queries two ways (client-side frontier expansion vs
DPU-offloaded traversal), shows the k-hop neighbourhood query, and proves
the graph survives power loss because its segments are durable.

Run: ``python examples/graph_analytics.py``
"""

from repro.apps.graph import (
    CsrGraph,
    GraphService,
    client_side_bfs,
    offloaded_bfs,
    random_graph,
)
from repro.common.units import format_time
from repro.dpu import HyperionDpu
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket

VERTICES = 300


def main() -> None:
    sim = Simulator()
    net = Network(sim, propagation=10e-6)
    dpu = HyperionDpu(sim, net, ssd_blocks=16384)
    sim.run_process(dpu.boot())

    graph = CsrGraph(dpu, VERTICES, random_graph(VERTICES))
    GraphService(
        sim, RpcServer(sim, UdpSocket(sim, net.endpoint("graph-dpu"))), graph
    )
    client = RpcClient(sim, UdpSocket(sim, net.endpoint("analyst")))
    print(f"graph: {VERTICES} vertices, {graph.edge_count} edges, "
          f"CSR in 2 durable segments on the DPU")

    def timed(fn, source, target):
        start = sim.now

        def proc():
            distance, rtts = yield from fn(client, "graph-dpu", source, target)
            return distance, rtts, sim.now - start

        return sim.run_process(proc())

    print(f"\nBFS shortest paths (one-way network delay: 10 us):")
    print(f"{'query':>12}  {'hops':>4}  {'client-side':>12}  {'RTTs':>5}  "
          f"{'offloaded':>10}  {'speedup':>7}")
    for target in (50, 150, 290):
        distance, rtts, chase_time = timed(client_side_bfs, 0, target)
        __, ___, offload_time = timed(offloaded_bfs, 0, target)
        print(f"{f'0 -> {target}':>12}  {distance:>4}  "
              f"{format_time(chase_time):>12}  {rtts:>5}  "
              f"{format_time(offload_time):>10}  "
              f"{chase_time / offload_time:>6.0f}x")

    def khop(source, hops):
        def proc():
            count = yield from client.call("graph-dpu", "graph.khop", source, hops)
            return count

        return sim.run_process(proc())

    print(f"\nk-hop neighbourhood of vertex 0 (LDBC-style): "
          f"{[khop(0, k) for k in (1, 2, 3)]} vertices at k=1,2,3")

    # Durability: the graph is data-at-rest in the single-level store.
    dpu.store.persist_table()
    twin = dpu.power_cycle()
    report = sim.run_process(twin.boot(recover_store=True))
    print(f"\npower cycle: {report.recovered_segments} graph segments "
          f"recovered from the boot area — the dataset needs no reload")


if __name__ == "__main__":
    main()
