"""Reusable core storage data structures (paper §4: "trees (B+, LSM), hash
tables" as the abstraction-design building blocks).

Every structure is built around explicit node/page identities rather than
Python references, so the same code runs in three places: in memory, over
the single-level segment store, and *remotely* over a network — which is
exactly what the pointer-chasing experiment (E2) needs to count round trips
per traversal hop.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bptree": ("BPlusTree", "InMemoryNodeStore", "NodeStore"),
    "lsm": ("LsmTree", "SsTable"),
    "extent": ("ExtentTree", "Extent"),
})
