"""Disaggregated pointer chasing: the paper's latency argument (§2.4).

"In a disaggregated storage, pointer chasing over B+ trees, extent trees,
LSM trees ... results in multiple network RTTs with significant performance
degradation. These latency-sensitive applications can now be deployed in
the FPGA even if they access higher-level data objects."

The tree lives at the DPU. Two access paths:

* **client-side** — the client fetches node after node: one RPC round trip
  *per level* of the tree;
* **offloaded** — one RPC carries the key; a verified eBPF-derived walker
  traverses locally at device latencies and returns the value: one RTT.
"""

from __future__ import annotations

import random
from typing import Any

from repro.datastruct.bptree import BPlusTree
from repro.sim import Simulator
from repro.transport.rpc import RpcClient, RpcServer

#: Modeled wire size of one serialized B+ node (keys + child ids).
NODE_WIRE_SIZE = 1024
#: DPU-local node fetch cost (node cached in FPGA DRAM).
LOCAL_FETCH_LATENCY = 200e-9

#: Seed of the order :meth:`RemoteTreeService.populate` inserts keys in.
POPULATE_SEED = 5
#: Fan-out of the hosted B+ tree.
TREE_ORDER = 4


class RemoteTreeService:
    """Hosts a B+ tree at the DPU; exports both access granularities."""

    def __init__(self, sim: Simulator, server: RpcServer):
        self.sim = sim
        self.tree = BPlusTree(order=TREE_ORDER)
        server.register("tree.root", self._root)
        server.register("tree.node", self._fetch_node)
        server.register("tree.lookup", self._lookup)
        server.register("tree.insert", self._insert)

    def populate(self, count: int) -> None:
        """Insert keys ``0 .. count-1`` in a seeded shuffled order."""
        keys = list(range(count))
        random.Random(POPULATE_SEED).shuffle(keys)
        for key in keys:
            self.tree.insert(key, f"value-{key}")

    # -- fine-grained interface (client-side chasing) -------------------------
    def _root(self) -> int:
        return self.tree.root_id

    def _fetch_node(self, node_id: int):
        yield self.sim.timeout(LOCAL_FETCH_LATENCY)
        node = self.tree.store.fetch(node_id)
        return {
            "is_leaf": node.is_leaf,
            "keys": list(node.keys),
            "children": list(node.children),
            "values": list(node.values),
        }

    # -- offloaded interface ---------------------------------------------------
    def _lookup(self, key: Any):
        """The near-data walker: whole traversal at local latency."""
        # One local fetch per node on the root-to-leaf path (never
        # empty), back to back: one sleep to the instant the walk ends.
        done_at = self.sim.now
        for _ in self.tree.search_path(key):
            done_at += LOCAL_FETCH_LATENCY
        yield self.sim.timeout_at(done_at)
        return self.tree.get(key)

    def _insert(self, key: Any, value: Any):
        yield self.sim.timeout(LOCAL_FETCH_LATENCY * self.tree.height)
        self.tree.insert(key, value)
        return True


def client_side_lookup(client: RpcClient, server_address: str, key: Any):
    """Process: chase the tree node by node over the network.

    Returns ``(value, round_trips)``.
    """
    root_id = yield from client.call(
        server_address, "tree.root", request_size=16, response_size=16
    )
    round_trips = 1
    node_id = root_id
    while True:
        node = yield from client.call(
            server_address, "tree.node", node_id,
            request_size=24, response_size=NODE_WIRE_SIZE,
        )
        round_trips += 1
        if node["is_leaf"]:
            for leaf_key, value in zip(node["keys"], node["values"]):
                if leaf_key == key:
                    return value, round_trips
            return None, round_trips
        # binary decision, client-side
        index = 0
        while index < len(node["keys"]) and key >= node["keys"][index]:
            index += 1
        node_id = node["children"][index]


def offloaded_lookup(client: RpcClient, server_address: str, key: Any):
    """Process: one RPC; the DPU walks the tree. Returns (value, rtts=1)."""
    value = yield from client.call(
        server_address, "tree.lookup", key,
        request_size=32, response_size=64,
    )
    return value, 1
