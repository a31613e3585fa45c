"""A B+ tree over an explicit node store.

Nodes are addressed by integer ids through an
:class:`InMemoryNodeStore`; every traversal step is a ``fetch`` — in
memory it is free, on a disaggregated store each fetch is a network
round trip (paper §2.4: "pointer chasing over B+ trees ... results in
multiple network RTTs with significant performance degradation").
``search_path`` exposes the chased pointers so experiments can count
them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError


@dataclass
class BPlusNode:
    """One node; ``children`` holds node ids (never object references)."""

    node_id: int
    is_leaf: bool
    keys: List[Any] = field(default_factory=list)
    children: List[int] = field(default_factory=list)  # internal nodes
    values: List[Any] = field(default_factory=list)  # leaves
    next_leaf: Optional[int] = None


class InMemoryNodeStore:
    """Where nodes live: a plain dict from node id to node."""

    def __init__(self) -> None:
        self._nodes: Dict[int, BPlusNode] = {}
        self._next_id = 0

    def allocate(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def fetch(self, node_id: int) -> BPlusNode:
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyError(f"no node {node_id}")
        return node

    def store(self, node: BPlusNode) -> None:
        self._nodes[node.node_id] = node


class BPlusTree:
    """Ordered map; order = max children per node."""

    def __init__(self, order: int = 16):
        if order < 3:
            raise ConfigurationError("B+ tree order must be >= 3")
        self.order = order
        self.store = InMemoryNodeStore()
        root = BPlusNode(self.store.allocate(), is_leaf=True)
        self.store.store(root)
        self.root_id = root.node_id
        self.size = 0

    # -- lookup ----------------------------------------------------------------
    def _walk(self, key: Any) -> Tuple[List[int], BPlusNode]:
        """Root-to-leaf walk; returns (visited node ids, leaf node)."""
        path = [self.root_id]
        node = self.store.fetch(self.root_id)
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            child_id = node.children[index]
            path.append(child_id)
            node = self.store.fetch(child_id)
        return path, node

    def search_path(self, key: Any) -> List[int]:
        """Node ids visited from root to the leaf responsible for ``key``."""
        return self._walk(key)[0]

    def get(self, key: Any) -> Optional[Any]:
        __, leaf = self._walk(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return None

    def __contains__(self, key: Any) -> bool:
        return self.get(key) is not None

    @property
    def height(self) -> int:
        """Levels from root to leaf (1 for a lone leaf)."""
        height = 1
        node = self.store.fetch(self.root_id)
        while not node.is_leaf:
            height += 1
            node = self.store.fetch(node.children[0])
        return height

    # -- mutation -------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        root = self.store.fetch(self.root_id)
        split = self._insert_into(root, key, value)
        if split is not None:
            middle_key, right_id = split
            new_root = BPlusNode(
                self.store.allocate(),
                is_leaf=False,
                keys=[middle_key],
                children=[self.root_id, right_id],
            )
            self.store.store(new_root)
            self.root_id = new_root.node_id

    def _insert_into(
        self, node: BPlusNode, key: Any, value: Any
    ) -> Optional[Tuple[Any, int]]:
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value  # overwrite
            else:
                node.keys.insert(index, key)
                node.values.insert(index, value)
                self.size += 1
            self.store.store(node)
            if len(node.keys) >= self.order:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        child = self.store.fetch(node.children[index])
        split = self._insert_into(child, key, value)
        if split is None:
            return None
        middle_key, right_id = split
        node.keys.insert(index, middle_key)
        node.children.insert(index + 1, right_id)
        self.store.store(node)
        if len(node.children) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: BPlusNode) -> Tuple[Any, int]:
        mid = len(node.keys) // 2
        right = BPlusNode(
            self.store.allocate(),
            is_leaf=True,
            keys=node.keys[mid:],
            values=node.values[mid:],
            next_leaf=node.next_leaf,
        )
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right.node_id
        self.store.store(node)
        self.store.store(right)
        return right.keys[0], right.node_id

    def _split_internal(self, node: BPlusNode) -> Tuple[Any, int]:
        mid = len(node.keys) // 2
        middle_key = node.keys[mid]
        right = BPlusNode(
            self.store.allocate(),
            is_leaf=False,
            keys=node.keys[mid + 1 :],
            children=node.children[mid + 1 :],
        )
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self.store.store(node)
        self.store.store(right)
        return middle_key, right.node_id

    def delete(self, key: Any) -> bool:
        """Remove a key (leaves may underflow; no rebalancing, as in many
        production B+ trees that defer it to compaction)."""
        __, leaf = self._walk(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        leaf.keys.pop(index)
        leaf.values.pop(index)
        self.store.store(leaf)
        self.size -= 1
        return True

    def items(self) -> Iterator[Tuple[Any, Any]]:
        node = self.store.fetch(self.root_id)
        while not node.is_leaf:
            node = self.store.fetch(node.children[0])
        while True:
            yield from zip(node.keys, node.values)
            if node.next_leaf is None:
                return
            node = self.store.fetch(node.next_leaf)
