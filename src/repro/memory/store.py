"""The single-level store: allocation, placement, access, and recovery.

This is Hyperion's replacement for both ``malloc`` and the file system: one
namespace of 128-bit segments whose total capacity is "DRAM plus NVMe
storage capacities" (paper §2.1). Bus-address ranges statically decide
location; durable segments must live on NVMe; the translation table is
periodically persisted to a pre-selected boot area and recovered after power
loss.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.common.errors import CapacityError, ConfigurationError
from repro.common.ids import ObjectId
from repro.hw.nvme.namespace import LBA_SIZE
from repro.memory.backends import DramBackend, NvmeBackend
from repro.memory.segments import PlacementHint, Segment, SegmentLocation
from repro.memory.table import SegmentTranslationTable
from repro.sim import Simulator

#: Bus-address bases of the static AXI range split (paper §2.1).
DRAM_WINDOW_BASE = 0x0000_0000_0000
HBM_WINDOW_BASE = 0x0010_0000_0000
NVME_WINDOW_BASE = 0x0100_0000_0000

#: Blocks reserved at the start of the NVMe window for the persisted table.
BOOT_AREA_BLOCKS = 256


class _Allocator:
    """Bump allocator over one backend's byte range (nothing is freed)."""

    def __init__(self, capacity: int, base: int = 0):
        self._cursor = base
        self._limit = base + capacity

    def allocate(self, size: int) -> int:
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self._cursor + size > self._limit:
            raise CapacityError("backend full")
        offset = self._cursor
        self._cursor += size
        return offset


class SingleLevelStore:
    """Segments over DRAM + (optional) HBM + NVMe with one translation step."""

    def __init__(
        self,
        sim: Simulator,
        dram: DramBackend,
        nvme: NvmeBackend,
        hbm: Optional[DramBackend] = None,
    ):
        self.dram = dram
        self.nvme = nvme
        self.hbm = hbm
        self.table = SegmentTranslationTable()
        metrics = sim.telemetry.unique_scope("memory.store")
        self._allocations = metrics.counter("allocations")
        self._reads = metrics.counter("reads")
        self._writes = metrics.counter("writes")
        self._rng = random.Random(0)  # object ids
        boot_bytes = BOOT_AREA_BLOCKS * LBA_SIZE
        if nvme.capacity <= boot_bytes:
            raise ConfigurationError("NVMe window smaller than the boot area")
        self._allocators = {
            SegmentLocation.DRAM: _Allocator(dram.capacity),
            SegmentLocation.NVME: _Allocator(nvme.capacity - boot_bytes, boot_bytes),
        }
        if hbm is not None:
            self._allocators[SegmentLocation.HBM] = _Allocator(hbm.capacity)

    # -- placement -----------------------------------------------------------
    def _window_base(self, location: SegmentLocation) -> int:
        return {
            SegmentLocation.DRAM: DRAM_WINDOW_BASE,
            SegmentLocation.HBM: HBM_WINDOW_BASE,
            SegmentLocation.NVME: NVME_WINDOW_BASE,
        }[location]

    def _backend(self, location: SegmentLocation):
        if location is SegmentLocation.DRAM:
            return self.dram
        if location is SegmentLocation.HBM:
            if self.hbm is None:
                raise ConfigurationError("no HBM backend configured")
            return self.hbm
        return self.nvme

    def _place(self, durable: bool, hint: PlacementHint) -> SegmentLocation:
        """Static policy with hints (paper §2.1)."""
        if durable:
            # Durability requires flash: "all durable segments must also be
            # allocated on NVMe addresses".
            return SegmentLocation.NVME
        if hint is PlacementHint.PERFORMANCE_CRITICAL and self.hbm is not None:
            return SegmentLocation.HBM
        if hint is PlacementHint.COLD:
            return SegmentLocation.NVME
        return SegmentLocation.DRAM

    # -- lifecycle -----------------------------------------------------------
    def allocate(
        self,
        size: int,
        durable: bool = False,
        hint: PlacementHint = PlacementHint.NONE,
        oid: Optional[ObjectId] = None,
    ) -> Segment:
        location = self._place(durable, hint)
        offset = self._allocators[location].allocate(size)
        segment = Segment(
            oid=oid if oid is not None else ObjectId.random(self._rng),
            size=size,
            location=location,
            bus_address=self._window_base(location) + offset,
            durable=durable,
        )
        self.table.insert(segment)
        self._allocations.inc()
        return segment

    # -- access (functional) ---------------------------------------------------
    def _resolve(self, oid: ObjectId, offset: int, size: int):
        segment = self.table.lookup(oid)
        if offset < 0 or offset + size > segment.size:
            raise CapacityError(
                f"access [{offset}, {offset + size}) outside segment of "
                f"{segment.size} bytes"
            )
        backend_offset = segment.bus_address - self._window_base(segment.location)
        return self._backend(segment.location), backend_offset + offset

    def read(self, oid: ObjectId, size: Optional[int] = None, offset: int = 0) -> bytes:
        segment = self.table.lookup(oid)
        if size is None:
            size = segment.size - offset
        backend, at = self._resolve(oid, offset, size)
        self._reads.inc()
        return backend.read(at, size)

    def write(self, oid: ObjectId, data: bytes) -> None:
        """Overwrite the start of the segment with *data*."""
        backend, at = self._resolve(oid, 0, len(data))
        self._writes.inc()
        backend.write(at, data)

    # -- access (timed processes) ----------------------------------------------
    def timed_read(self, oid: ObjectId, size: Optional[int] = None, offset: int = 0):
        segment = self.table.lookup(oid)
        if size is None:
            size = segment.size - offset
        backend, at = self._resolve(oid, offset, size)
        self._reads.inc()
        data = yield from backend.timed_read(at, size)
        return data

    def timed_write(self, oid: ObjectId, data: bytes, offset: int = 0):
        backend, at = self._resolve(oid, offset, len(data))
        self._writes.inc()
        yield from backend.timed_write(at, data)

    # -- persistence / recovery ---------------------------------------------
    def persist_table(self) -> int:
        """Write the durable-segment table into the boot area; returns bytes."""
        image = self.table.serialize()
        if len(image) > BOOT_AREA_BLOCKS * LBA_SIZE:
            raise CapacityError("segment table exceeds the boot area")
        self.nvme.write(0, image)
        return len(image)

    def timed_persist_table(self):
        image = self.table.serialize()
        if len(image) > BOOT_AREA_BLOCKS * LBA_SIZE:
            raise CapacityError("segment table exceeds the boot area")
        yield from self.nvme.timed_write(0, image)
        return len(image)

    @classmethod
    def recover(
        cls,
        sim: Simulator,
        dram: DramBackend,
        nvme: NvmeBackend,
        hbm: Optional[DramBackend] = None,
    ) -> "SingleLevelStore":
        """Rebuild a store after power loss from the persisted boot image.

        Only durable (NVMe-resident) segments survive; DRAM/HBM contents are
        gone, exactly as on real hardware.
        """
        store = cls(sim, dram, nvme, hbm=hbm)
        raw = nvme.read(0, BOOT_AREA_BLOCKS * LBA_SIZE)
        recovered = SegmentTranslationTable.deserialize(raw)
        for segment in recovered:
            store.table.insert(segment)
            offset = segment.bus_address - store._window_base(segment.location)
            # Re-reserve the segment's extent so new allocations avoid it.
            allocator = store._allocators[segment.location]
            if offset + segment.size > allocator._cursor:
                allocator._cursor = offset + segment.size
        return store
