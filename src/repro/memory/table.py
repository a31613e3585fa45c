"""The segment translation table: 128-bit id -> (location, bus address).

Paper §2.1: "The segment location translation is done using a segment
translation table that maps a segment id (128 bits) to their bus addresses
and to their location, DRAM or NVMe. ... The segment translation table is
periodically persisted on a pre-selected control/boot NVMe area."
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.common.errors import ConfigurationError
from repro.common.ids import ObjectId
from repro.memory.segments import Segment

_MAGIC = b"HYPRSTT1"


class SegmentTranslationTable:
    """An in-fabric table (conceptually BRAM/URAM-resident) of segments."""

    def __init__(self) -> None:
        self._segments: Dict[ObjectId, Segment] = {}
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._segments

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments.values())

    def insert(self, segment: Segment) -> None:
        if segment.oid in self._segments:
            raise ConfigurationError(f"segment {segment.oid} already mapped")
        self._segments[segment.oid] = segment

    def lookup(self, oid: ObjectId) -> Segment:
        """One translation: a single associative lookup (vs a 4-level walk)."""
        self.lookups += 1
        segment = self._segments.get(oid)
        if segment is None:
            raise KeyError(f"unmapped segment {oid}")
        return segment

    def durable_segments(self) -> List[Segment]:
        return [s for s in self._segments.values() if s.durable]

    # -- persistence ---------------------------------------------------------
    def serialize(self, durable_only: bool = True) -> bytes:
        """Flat record pack: magic, count, then fixed-size records."""
        segments = self.durable_segments() if durable_only else list(self)
        header = _MAGIC + len(segments).to_bytes(8, "big")
        return header + b"".join(s.to_record() for s in segments)

    @classmethod
    def deserialize(cls, raw: bytes) -> "SegmentTranslationTable":
        if len(raw) < 16 or raw[:8] != _MAGIC:
            raise ConfigurationError("bad segment table image")
        count = int.from_bytes(raw[8:16], "big")
        needed = 16 + count * Segment.RECORD_SIZE
        if len(raw) < needed:
            raise ConfigurationError("truncated segment table image")
        table = cls()
        offset = 16
        for _ in range(count):
            record = raw[offset : offset + Segment.RECORD_SIZE]
            table.insert(Segment.from_record(record))
            offset += Segment.RECORD_SIZE
        return table
