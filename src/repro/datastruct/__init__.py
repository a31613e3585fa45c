"""Reusable core storage data structures (paper §4: "trees (B+, LSM), hash
tables" as the abstraction-design building blocks).

Every structure is built around explicit node/page identities rather than
Python references, so the same code runs in three places: in memory, over
the single-level segment store, and *remotely* over a network — which is
exactly what the pointer-chasing experiment (E2) needs to count round trips
per traversal hop.
"""

from repro.datastruct.bptree import BPlusTree, InMemoryNodeStore, NodeStore
from repro.datastruct.lsm import LsmTree, SsTable
from repro.datastruct.extent import ExtentTree, Extent

__all__ = [
    "BPlusTree",
    "NodeStore",
    "InMemoryNodeStore",
    "LsmTree",
    "SsTable",
    "ExtentTree",
    "Extent",
]
