"""Segment descriptors: the unit of naming in the single-level store."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.ids import ObjectId


class SegmentLocation(enum.Enum):
    """Where a segment's bytes currently live."""

    DRAM = "dram"
    HBM = "hbm"
    NVME = "nvme"


class PlacementHint(enum.Enum):
    """Allocation hints (paper §2.1: "hints-based allocation should also be
    possible where temporary and/or performance-critical objects are
    allocated or eventually promoted to DRAM or HBM")."""

    NONE = "none"
    PERFORMANCE_CRITICAL = "performance-critical"
    TEMPORARY = "temporary"
    COLD = "cold"


@dataclass
class Segment:
    """One named, contiguous object in the unified address space.

    ``bus_address`` is the segment's location on the AXI interconnect: the
    static address-range split decides whether that resolves to DRAM or to
    an NVMe BAR window (paper §2.1).
    """

    oid: ObjectId
    size: int
    location: SegmentLocation
    bus_address: int
    durable: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("segment size must be positive")
        if self.bus_address < 0:
            raise ValueError("bus address must be non-negative")

    def to_record(self) -> bytes:
        """Fixed 40-byte on-disk record for table persistence."""
        flags = (1 if self.durable else 0) | (
            {"dram": 0, "hbm": 1, "nvme": 2}[self.location.value] << 1
        )
        return (
            self.oid.to_bytes()
            + self.size.to_bytes(8, "big")
            + self.bus_address.to_bytes(8, "big")
            + flags.to_bytes(8, "big")
        )

    @classmethod
    def from_record(cls, record: bytes) -> "Segment":
        if len(record) != 40:
            raise ValueError("segment record must be 40 bytes")
        oid = ObjectId.from_bytes(record[:16])
        size = int.from_bytes(record[16:24], "big")
        bus_address = int.from_bytes(record[24:32], "big")
        flags = int.from_bytes(record[32:40], "big")
        location = [SegmentLocation.DRAM, SegmentLocation.HBM, SegmentLocation.NVME][
            (flags >> 1) & 0x3
        ]
        return cls(oid, size, location, bus_address, durable=bool(flags & 1))

    RECORD_SIZE = 40
