"""Tests for the graph-analytics killer workload (paper §4(2))."""

import pytest

from repro.apps.graph import (
    CsrGraph,
    GraphService,
    client_side_bfs,
    offloaded_bfs,
    random_graph,
    _bfs_distance,
)
from repro.dpu import HyperionDpu
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket


def booted_dpu(sim, net):
    dpu = HyperionDpu(sim, net, ssd_blocks=16384)
    sim.run_process(dpu.boot())
    return dpu


def make_service(sim, vertex_count=50, edges=None, propagation=1e-6):
    net = Network(sim, propagation=propagation)
    dpu = booted_dpu(sim, net)
    edges = edges if edges is not None else random_graph(vertex_count)
    graph = CsrGraph(dpu, vertex_count, edges)
    service = GraphService(
        sim, RpcServer(sim, UdpSocket(sim, net.endpoint("graph-dpu"))), graph
    )
    client = RpcClient(sim, UdpSocket(sim, net.endpoint("analyst")))
    return graph, service, client


def timed_bfs(sim, client, bfs, target):
    """(simulated seconds, distance) of one BFS from vertex 0."""
    start = sim.now

    def proc():
        distance, __ = yield from bfs(client, "graph-dpu", 0, target)
        return sim.now - start, distance

    return sim.run_process(proc())


class TestCsrGraph:
    def test_neighbors_from_segments(self):
        sim = Simulator()
        net = Network(sim)
        dpu = booted_dpu(sim, net)
        graph = CsrGraph(dpu, 4, [(0, 1), (0, 2), (2, 3)])
        assert graph.neighbors(0) == [1, 2]
        assert graph.neighbors(1) == []
        assert graph.neighbors(2) == [3]
        assert graph.edge_count == 3

    def test_unknown_vertex(self):
        sim = Simulator()
        net = Network(sim)
        dpu = booted_dpu(sim, net)
        graph = CsrGraph(dpu, 2, [(0, 1)])
        with pytest.raises(KeyError):
            graph.neighbors(5)

    def test_segments_are_durable(self):
        sim = Simulator()
        net = Network(sim)
        dpu = booted_dpu(sim, net)
        graph = CsrGraph(dpu, 3, [(0, 1), (1, 2)])
        assert graph.offsets_segment.durable
        assert graph.edges_segment.durable

    def test_graph_survives_power_loss(self):
        """The CSR segments are durable: BFS works after recovery."""
        sim = Simulator()
        net = Network(sim)
        dpu = booted_dpu(sim, net)
        graph = CsrGraph(dpu, 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        dpu.store.persist_table()
        twin = dpu.power_cycle()
        sim.run_process(twin.boot(recover_store=True))
        recovered = object.__new__(CsrGraph)
        recovered.dpu = twin
        recovered.vertex_count = 5
        recovered.offsets_segment = twin.store.table.lookup(CsrGraph.OFFSETS_OID)
        recovered.edges_segment = twin.store.table.lookup(CsrGraph.EDGES_OID)
        assert recovered.neighbors(2) == [3]
        assert _bfs_distance(recovered, 0, 4)[0] == 4


class TestBfs:
    def test_distance_on_path(self):
        sim = Simulator()
        graph, __, ___ = make_service(
            sim, vertex_count=6, edges=[(i, i + 1) for i in range(5)]
        )
        assert _bfs_distance(graph, 0, 5)[0] == 5
        assert _bfs_distance(graph, 0, 0)[0] == 0

    def test_unreachable(self):
        sim = Simulator()
        graph, __, ___ = make_service(sim, vertex_count=4, edges=[(0, 1)])
        assert _bfs_distance(graph, 0, 3)[0] == -1

    def test_client_and_offload_agree(self):
        sim = Simulator()
        __, service, client = make_service(sim, vertex_count=40)

        def scenario():
            chased, chase_rtts = yield from client_side_bfs(
                client, "graph-dpu", 0, 35
            )
            offloaded, __ = yield from offloaded_bfs(client, "graph-dpu", 0, 35)
            return chased, chase_rtts, offloaded

        chased, chase_rtts, offloaded = sim.run_process(scenario())
        assert chased == offloaded
        assert chase_rtts > 1

    def test_offload_is_much_faster(self):
        sim = Simulator()
        __, service, client = make_service(sim, vertex_count=100)
        chase_time, __ = timed_bfs(sim, client, client_side_bfs, 95)
        offload_time, __ = timed_bfs(sim, client, offloaded_bfs, 95)
        # Frontier expansion over the network pays RTTs per vertex.
        assert offload_time < chase_time / 10

    def test_offload_factor_grows_with_the_graph(self):
        # E2's tree has a fixed height; a BFS frontier does not, so on a
        # 10 us link the offload win grows with the vertex count.
        speedups = []
        for count in (20, 80, 320):
            sim = Simulator()
            __, service, client = make_service(
                sim, vertex_count=count, propagation=10e-6)
            chase_time, chased = timed_bfs(
                sim, client, client_side_bfs, count - 2)
            offload_time, offloaded = timed_bfs(
                sim, client, offloaded_bfs, count - 2)
            assert chased == offloaded
            speedups.append(chase_time / offload_time)
        assert speedups == sorted(speedups)
        assert speedups[-1] > 20

    def test_khop_counts(self):
        sim = Simulator()
        __, service, client = make_service(
            sim, vertex_count=7,
            edges=[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6)],
        )

        def scenario():
            one = yield from client.call("graph-dpu", "graph.khop", 0, 1)
            two = yield from client.call("graph-dpu", "graph.khop", 0, 2)
            return one, two

        one_hop, two_hop = sim.run_process(scenario())
        assert one_hop == 3  # {0,1,2}
        assert two_hop == 5  # + {3,4}
