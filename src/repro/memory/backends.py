"""Backing stores for segments: on-card DRAM/HBM and NVMe flash.

Each backend exposes the same small interface:

* ``read(offset, size)`` / ``write(offset, data)`` — functional access used
  by the layers that only care about contents (data structures, formats);
* ``timed_read`` / ``timed_write`` — simulation processes charging the
  device's real latency, used by the datapath experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import CapacityError, DegradedError
from repro.hw.fpga.fabric import MemoryBank
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode, NvmeStatus
from repro.hw.nvme.controller import NvmeController, NvmeQueuePair
from repro.hw.nvme.namespace import LBA_SIZE, Namespace
from repro.sim import Simulator

#: Times a failed read is retried (the in-device read-retry of an FTL)
#: before it surfaces.
READ_RETRIES = 2


class DramBackend:
    """A byte-addressable on-card memory bank (DDR4 or HBM)."""

    def __init__(self, sim: Simulator, bank: MemoryBank, capacity: Optional[int] = None):
        self.sim = sim
        self.bank = bank
        self.capacity = capacity if capacity is not None else bank.capacity
        self._bytes = bytearray()
        self.reads = 0
        self.writes = 0

    def _ensure(self, end: int) -> None:
        if end > self.capacity:
            raise CapacityError(f"access beyond {self.bank.name} capacity")
        if end > len(self._bytes):
            self._bytes.extend(b"\x00" * (end - len(self._bytes)))

    def read(self, offset: int, size: int) -> bytes:
        self._ensure(offset + size)
        self.reads += 1
        return bytes(self._bytes[offset : offset + size])

    def write(self, offset: int, data: bytes) -> None:
        self._ensure(offset + len(data))
        self.writes += 1
        self._bytes[offset : offset + len(data)] = data

    def timed_read(self, offset: int, size: int):
        yield self.sim.timeout(self.bank.transfer_time(size))
        return self.read(offset, size)

    def timed_write(self, offset: int, data: bytes):
        yield self.sim.timeout(self.bank.transfer_time(len(data)))
        self.write(offset, data)


class NvmeBackend:
    """Namespace 1 of an NVMe controller, addressed in bytes.

    Byte offsets map to LBAs; sub-block writes do read-modify-write the way
    a flash translation layer would.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: NvmeController,
        queue_pair: NvmeQueuePair,
    ):
        self.sim = sim
        self.controller = controller
        self.qp = queue_pair
        self.retried_reads = 0
        self.block_count = self._namespace().capacity_blocks

    @property
    def capacity(self) -> int:
        return self.block_count * LBA_SIZE

    def _namespace(self) -> Namespace:
        return self.controller.namespaces[1]

    def _span(self, offset: int, size: int):
        if offset < 0 or offset + size > self.capacity:
            raise CapacityError("access beyond NVMe backend window")
        first = offset // LBA_SIZE
        last = (offset + size - 1) // LBA_SIZE if size else first
        return first, last - first + 1, offset % LBA_SIZE

    # -- functional access ---------------------------------------------------
    def read(self, offset: int, size: int) -> bytes:
        if size == 0:
            return b""
        first, count, skip = self._span(offset, size)
        raw = self._namespace().read_blocks(first, count)
        return raw[skip : skip + size]

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        first, count, skip = self._span(offset, len(data))
        raw = bytearray(self._namespace().read_blocks(first, count))
        raw[skip : skip + len(data)] = data
        self._namespace().write_blocks(first, bytes(raw))

    # -- timed access --------------------------------------------------------
    def timed_read(self, offset: int, size: int):
        """Process: one read, retried per the backend's recovery policy.

        Transient media errors (injected UNRECOVERED_READ_ERROR, aborted
        commands) are retried up to :data:`READ_RETRIES` times — the in-device
        read-retry a real FTL performs — before the failure surfaces as a
        :class:`DegradedError`.
        """
        if size == 0:
            return b""
        first, count, __ = self._span(offset, size)
        retryable = (NvmeStatus.UNRECOVERED_READ_ERROR, NvmeStatus.COMMAND_ABORTED)
        for attempt in range(READ_RETRIES + 1):
            completion = yield self.qp.submit(
                NvmeCommand(NvmeOpcode.READ, lba=first, block_count=count)
            )
            if completion.ok:
                return self.read(offset, size)
            if completion.status not in retryable:
                raise CapacityError(f"NVMe read failed: {completion.status}")
            if attempt < READ_RETRIES:
                self.retried_reads += 1
        raise DegradedError(
            f"NVMe read failed after {READ_RETRIES + 1} attempts: "
            f"{completion.status}"
        )

    def timed_write(self, offset: int, data: bytes):
        if not data:
            return
        first, count, skip = self._span(offset, len(data))
        raw = bytearray(self._namespace().read_blocks(first, count))
        raw[skip : skip + len(data)] = data
        completion = yield self.qp.submit(
            NvmeCommand(NvmeOpcode.WRITE, lba=first, data=bytes(raw))
        )
        if not completion.ok:
            raise CapacityError(f"NVMe write failed: {completion.status}")
