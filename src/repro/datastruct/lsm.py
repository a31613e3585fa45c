"""A log-structured merge tree: memtable, SSTables, and compaction.

LSM trees are the paper's second headline pointer-chased structure (§2.4)
and the substrate for key-value stores with "B+/LSM tree search, compaction
and insertions" offloaded near the data. SSTables serialize to bytes so
they can live on NVMe blocks or durable segments.
"""

from __future__ import annotations

import bisect
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.telemetry import MetricScope

_TOMBSTONE = b"\x00__tombstone__"
_MAGIC = b"SSTB"


class SsTable:
    """An immutable, sorted run of key/value byte pairs."""

    def __init__(self, entries: List[Tuple[bytes, bytes]]):
        keys = [key for key, __ in entries]
        if keys != sorted(keys):
            raise ProtocolError("SSTable entries must be sorted")
        if len(set(keys)) != len(keys):
            raise ProtocolError("SSTable keys must be unique")
        self._keys = keys
        self._values = [value for __, value in entries]
        # A cheap membership filter (stands in for a Bloom filter).
        self._filter = {hash(key) & 0xFFFF for key in keys}

    def __len__(self) -> int:
        return len(self._keys)

    def might_contain(self, key: bytes) -> bool:
        return (hash(key) & 0xFFFF) in self._filter

    def get(self, key: bytes) -> Optional[bytes]:
        if not self.might_contain(key):
            return None
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index]
        return None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        return iter(zip(self._keys, self._values))

    # -- serialization -------------------------------------------------------
    def serialize(self) -> bytes:
        parts = [_MAGIC, struct.pack("<I", len(self._keys))]
        for key, value in zip(self._keys, self._values):
            parts.append(struct.pack("<II", len(key), len(value)))
            parts.append(key)
            parts.append(value)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, raw: bytes) -> "SsTable":
        if raw[:4] != _MAGIC:
            raise ProtocolError("bad SSTable image")
        (count,) = struct.unpack_from("<I", raw, 4)
        entries: List[Tuple[bytes, bytes]] = []
        offset = 8
        for _ in range(count):
            key_len, value_len = struct.unpack_from("<II", raw, offset)
            offset += 8
            key = raw[offset : offset + key_len]
            offset += key_len
            value = raw[offset : offset + value_len]
            offset += value_len
            entries.append((key, value))
        return cls(entries)


class LsmTree:
    """Leveled LSM: writes hit the memtable; reads check newest-first.

    L0 collects flushed memtables (possibly overlapping); when L0 exceeds
    ``l0_limit`` tables they merge with L1 into a single sorted run — the
    compaction workload §2.4 proposes pushing into the DPU.

    The tree is a pure data structure with no simulator, so by default
    its counters live in a private standalone registry; an owner (e.g. a
    KV-SSD) passes a scope from its central registry instead.
    """

    def __init__(
        self,
        memtable_limit: int = 64,
        l0_limit: int = 4,
        metrics: Optional[MetricScope] = None,
    ):
        if memtable_limit < 1 or l0_limit < 1:
            raise ProtocolError("limits must be positive")
        self.memtable_limit = memtable_limit
        self.l0_limit = l0_limit
        self._memtable: Dict[bytes, bytes] = {}
        self.l0: List[SsTable] = []  # newest first
        self.l1: Optional[SsTable] = None
        if metrics is None:
            metrics = MetricScope.standalone("lsm")
        self._flushes = metrics.counter("flushes")
        self._compactions = metrics.counter("compactions")
        self._bytes_compacted = metrics.counter("bytes_compacted")

    def __len__(self) -> int:
        return sum(1 for __ in self.items())

    @property
    def flushes(self) -> int:
        return self._flushes.value

    # -- writes --------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        if value.startswith(_TOMBSTONE):
            raise ProtocolError("value collides with the tombstone marker")
        self._memtable[bytes(key)] = bytes(value)
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def delete(self, key: bytes) -> None:
        self._memtable[bytes(key)] = _TOMBSTONE
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new L0 SSTable."""
        if not self._memtable:
            return
        entries = sorted(self._memtable.items())
        self.l0.insert(0, SsTable(entries))
        self._memtable = {}
        self._flushes.inc()
        if len(self.l0) > self.l0_limit:
            self.compact()

    def compact(self) -> None:
        """Merge all of L0 with L1 into one run, dropping shadowed values
        and tombstones."""
        merged: Dict[bytes, bytes] = {}
        sources: List[SsTable] = []
        if self.l1 is not None:
            sources.append(self.l1)
        sources.extend(reversed(self.l0))  # oldest first, newest overwrite
        for table in sources:
            for key, value in table.items():
                merged[key] = value
                self._bytes_compacted.inc(len(key) + len(value))
        survivors = sorted(
            (k, v) for k, v in merged.items() if v != _TOMBSTONE
        )
        self.l1 = SsTable(survivors) if survivors else None
        self.l0 = []
        self._compactions.inc()

    # -- reads ---------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        key = bytes(key)
        if key in self._memtable:
            value = self._memtable[key]
            return None if value == _TOMBSTONE else value
        for table in self.l0:
            value = table.get(key)
            if value is not None:
                return None if value == _TOMBSTONE else value
        if self.l1 is not None:
            value = self.l1.get(key)
            if value is not None and value != _TOMBSTONE:
                return value
        return None

    def search_cost(self, key: bytes) -> int:
        """Number of distinct storage runs consulted for this key — each is
        a potential network/flash round trip when disaggregated."""
        key = bytes(key)
        cost = 0
        if key in self._memtable:
            return 1
        cost += 1  # memtable check
        for table in self.l0:
            cost += 1
            if table.get(key) is not None:
                return cost
        if self.l1 is not None:
            cost += 1
        return cost

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        merged: Dict[bytes, bytes] = {}
        if self.l1 is not None:
            merged.update(self.l1.items())
        for table in reversed(self.l0):
            merged.update(table.items())
        merged.update(self._memtable)
        for key in sorted(merged):
            if merged[key] != _TOMBSTONE:
                yield key, merged[key]
