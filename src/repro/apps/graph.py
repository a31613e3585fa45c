"""Graph analytics on network-attached storage (paper §4(2)).

One of the paper's candidate "killer workloads": "LDBC Graphalytics with
graph database ... data-intensive and have been shown to benefit from FPGA
acceleration". The graph lives in CSR form inside durable segments on the
DPU; a breadth-first search is the canonical pointer-chasing-at-scale
traversal:

* **client-side**: every frontier expansion fetches a vertex's adjacency
  over the network — RTTs proportional to vertices visited;
* **offloaded**: one RPC ships the query; the DPU walks its own segments
  at device latency and returns the result.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from typing import Dict, List, Set, Tuple

from repro.common.ids import ObjectId
from repro.dpu.hyperion import HyperionDpu
from repro.sim import Simulator
from repro.transport.rpc import RpcClient, RpcServer

#: DPU-local adjacency fetch (segment in DRAM/flash-backed cache).
LOCAL_FETCH_LATENCY = 300e-9

#: Seed of :func:`random_graph`'s edge draws.
GRAPH_SEED = 3


class CsrGraph:
    """Compressed-sparse-row adjacency stored in two segments."""

    OFFSETS_OID = ObjectId(0x6AF0)
    EDGES_OID = ObjectId(0x6AF1)

    def __init__(self, dpu: HyperionDpu, vertex_count: int,
                 edges: List[Tuple[int, int]]):
        dpu.require_booted()
        self.dpu = dpu
        self.vertex_count = vertex_count
        adjacency: Dict[int, List[int]] = {v: [] for v in range(vertex_count)}
        for src, dst in edges:
            adjacency[src].append(dst)
        offsets = [0]
        flat: List[int] = []
        for vertex in range(vertex_count):
            flat.extend(sorted(adjacency[vertex]))
            offsets.append(len(flat))
        offsets_raw = b"".join(struct.pack("<I", o) for o in offsets)
        edges_raw = b"".join(struct.pack("<I", e) for e in flat)
        self.offsets_segment = dpu.store.allocate(
            max(4, len(offsets_raw)), durable=True, oid=self.OFFSETS_OID
        )
        self.edges_segment = dpu.store.allocate(
            max(4, len(edges_raw)), durable=True, oid=self.EDGES_OID
        )
        dpu.store.write(self.offsets_segment.oid, offsets_raw)
        if edges_raw:
            dpu.store.write(self.edges_segment.oid, edges_raw)
        self.edge_count = len(flat)

    def neighbors(self, vertex: int) -> List[int]:
        """Functional adjacency read straight from the segments."""
        if not 0 <= vertex < self.vertex_count:
            raise KeyError(f"no vertex {vertex}")
        raw = self.dpu.store.read(self.offsets_segment.oid, 8, offset=vertex * 4)
        start, end = struct.unpack("<II", raw)
        if start == end:
            return []
        raw = self.dpu.store.read(
            self.edges_segment.oid, (end - start) * 4, offset=start * 4
        )
        return [v[0] for v in struct.iter_unpack("<I", raw)]


def random_graph(vertex_count: int,
                 avg_degree: float = 4.0) -> List[Tuple[int, int]]:
    """A random digraph with a connected backbone (path + random edges),
    the same one for the same arguments."""
    rng = random.Random(GRAPH_SEED)
    edges = [(v, v + 1) for v in range(vertex_count - 1)]
    extra = int(vertex_count * max(0.0, avg_degree - 1))
    for _ in range(extra):
        edges.append((rng.randrange(vertex_count), rng.randrange(vertex_count)))
    return edges


class GraphService:
    """Hosts a CSR graph at the DPU; exports both access granularities."""

    def __init__(self, sim: Simulator, server: RpcServer, graph: CsrGraph):
        self.sim = sim
        self.graph = graph
        self.adjacency_fetches = 0
        self.offloaded_queries = 0
        server.register("graph.neighbors", self._neighbors)
        server.register("graph.bfs", self._bfs)
        server.register("graph.khop", self._khop)

    # -- fine-grained (client-side traversal) ----------------------------------
    def _neighbors(self, vertex: int):
        yield self.sim.timeout(LOCAL_FETCH_LATENCY)
        self.adjacency_fetches += 1
        return self.graph.neighbors(vertex)

    # -- offloaded ---------------------------------------------------------
    def _bfs(self, source: int, target: int):
        """Whole BFS at the DPU; returns hop distance or -1."""
        distance, visited = _bfs_distance(self.graph, source, target)
        yield self.sim.timeout(LOCAL_FETCH_LATENCY * max(1, visited))
        self.offloaded_queries += 1
        return distance

    def _khop(self, source: int, hops: int):
        """The LDBC-ish k-hop neighbourhood count."""
        frontier = {source}
        seen = {source}
        for _ in range(hops):
            nxt: Set[int] = set()
            for vertex in frontier:
                nxt.update(self.graph.neighbors(vertex))
            nxt -= seen
            seen |= nxt
            frontier = nxt
        yield self.sim.timeout(LOCAL_FETCH_LATENCY * max(1, len(seen)))
        self.offloaded_queries += 1
        return len(seen)


def _bfs_distance(graph: CsrGraph, source: int, target: int) -> Tuple[int, int]:
    """(hop distance or -1, vertices visited)."""
    if source == target:
        return 0, 1
    queue = deque([(source, 0)])
    seen = {source}
    while queue:
        vertex, depth = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if neighbor in seen:
                continue
            if neighbor == target:
                return depth + 1, len(seen) + 1
            seen.add(neighbor)
            queue.append((neighbor, depth + 1))
    return -1, len(seen)


def client_side_bfs(client: RpcClient, server_address: str, source: int,
                    target: int):
    """Process: BFS where every adjacency list crosses the network.

    Returns ``(distance, round_trips)``.
    """
    if source == target:
        return 0, 0
    round_trips = 0
    queue = deque([(source, 0)])
    seen = {source}
    while queue:
        vertex, depth = queue.popleft()
        neighbors = yield from client.call(
            server_address, "graph.neighbors", vertex,
            request_size=24, response_size=256,
        )
        round_trips += 1
        for neighbor in neighbors:
            if neighbor in seen:
                continue
            if neighbor == target:
                return depth + 1, round_trips
            seen.add(neighbor)
            queue.append((neighbor, depth + 1))
    return -1, round_trips


def offloaded_bfs(client: RpcClient, server_address: str, source: int,
                  target: int):
    """Process: one RPC; the DPU traverses locally. Returns (distance, 1)."""
    distance = yield from client.call(
        server_address, "graph.bfs", source, target,
        request_size=32, response_size=16,
    )
    return distance, 1
