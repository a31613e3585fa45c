"""Consistent-hash ring with virtual nodes (paper §2.4, Hyperion scale-out).

Modulo placement (``hash(key) % n``) reshuffles almost every key when
``n`` changes, so adding a DPU to a running cluster means re-homing the
whole keyspace — an outage, not a scaling event. A consistent-hash ring
moves only the keys that land on the new node's virtual-node arcs
(~``1/n`` of the keyspace), which is what makes live shard migration
(:mod:`repro.sharding.migration`) tractable.

Placement is fully deterministic: node positions come from
``blake2b(node#replica)`` and key lookups from ``blake2b(key)``, so the
same topology always yields the same owner on every machine and under
every ``PYTHONHASHSEED`` — the repo's byte-identical-per-seed contract.

>>> ring = HashRing(["dpu-0", "dpu-1", "dpu-2"])
>>> ring.owner_of(b"user:42") == ring.owner_of(b"user:42")
True
>>> sorted(ring.nodes)
['dpu-0', 'dpu-1', 'dpu-2']
>>> chain = ring.replicas_of(b"user:42", 2)
>>> len(chain) == 2 and chain[0] != chain[1]
True
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List

from repro.common.errors import ConfigurationError

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual nodes per physical node. Enough that the per-node keyspace
#: share concentrates (max/mean load stays under ~1.5 for realistic key
#: counts) while keeping ring rebuilds cheap.
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """The ring position of *label*: a 64-bit blake2b digest."""
    digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _key_point(key: bytes) -> int:
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Deterministic consistent-hash ring with virtual nodes.

    Each physical node owns ``vnodes`` points on a 64-bit ring; a key is
    owned by the first point at or clockwise after ``blake2b(key)``.
    Replica chains walk further clockwise, skipping points of nodes
    already in the chain, so replicas always land on distinct physical
    nodes (when enough exist).

    >>> ring, bigger = HashRing(["a", "b"]), HashRing(["a", "b", "c"])
    >>> keys = [f"k{i}".encode() for i in range(100)]
    >>> moved = [k for k in keys if ring.owner_of(k) != bigger.owner_of(k)]
    >>> 0 < len(moved) < 100   # only the new node's arcs move
    True
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ConfigurationError("need at least one virtual node")
        self.vnodes = vnodes
        #: Sorted ring points and their owning node, kept in lockstep.
        self._points: List[int] = []
        self._owners: List[str] = []
        #: Physical nodes in insertion order (deterministic iteration).
        self._nodes: Dict[str, None] = {}
        for node in nodes:
            self.add_node(node)

    # -- membership ----------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        """Physical nodes, in the order they joined."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        """Place *node*'s virtual nodes on the ring."""
        if node in self._nodes:
            raise ConfigurationError(f"node {node!r} already on the ring")
        self._nodes[node] = None
        for replica in range(self.vnodes):
            point = _point(f"{node}#{replica}")
            at = bisect.bisect_left(self._points, point)
            # 64-bit collisions across distinct labels are effectively
            # impossible; break ties by name anyway so placement stays
            # total-ordered and deterministic.
            while (at < len(self._points) and self._points[at] == point
                   and self._owners[at] < node):
                at += 1
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove_node(self, node: str) -> None:
        """Take *node*'s virtual nodes off the ring."""
        if node not in self._nodes:
            raise ConfigurationError(f"node {node!r} not on the ring")
        del self._nodes[node]
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != node]
        self._points = [p for p, __ in keep]
        self._owners = [o for __, o in keep]

    def with_node(self, node: str) -> "HashRing":
        """A copy of this ring with *node* added (the post-scale-out view)."""
        ring = HashRing(self._nodes, vnodes=self.vnodes)
        ring.add_node(node)
        return ring

    def without_node(self, node: str) -> "HashRing":
        """A copy of this ring with *node* removed (the drain target view)."""
        ring = HashRing(self._nodes, vnodes=self.vnodes)
        ring.remove_node(node)
        return ring

    # -- placement -----------------------------------------------------------
    def owner_of(self, key: bytes) -> str:
        """The physical node owning *key*."""
        return self.replicas_of(key, 1)[0]

    def replicas_of(self, key: bytes, count: int) -> List[str]:
        """The first *count* distinct nodes clockwise from the key's point.

        Raises :class:`~repro.common.errors.ConfigurationError` when the
        ring is empty or has fewer than *count* physical nodes.
        """
        if not self._nodes:
            raise ConfigurationError("ring has no nodes")
        if not 1 <= count <= len(self._nodes):
            raise ConfigurationError(
                f"need 1..{len(self._nodes)} replicas, got {count}"
            )
        start = bisect.bisect_left(self._points, _key_point(key))
        chain: List[str] = []
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in chain:
                chain.append(owner)
                if len(chain) == count:
                    break
        return chain

    # -- load accounting -----------------------------------------------------
    def load_of(self, keys: Iterable[bytes]) -> Dict[str, int]:
        """Keys per owning node (every node present, zero included)."""
        load = {node: 0 for node in self._nodes}
        for key in keys:
            load[self.owner_of(key)] += 1
        return load

    def skew(self, keys: Iterable[bytes]) -> float:
        """max/mean keys per node over *keys* — 1.0 is a perfect spread."""
        load = self.load_of(keys)
        mean = sum(load.values()) / len(load)
        return max(load.values()) / mean if mean else 1.0
