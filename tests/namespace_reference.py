"""Test-only reference namespace: the oracle for ``Namespace``.

This is the block store ``repro.hw.nvme.Namespace`` was while every write
was padded with zeros to a whole ``LBA_SIZE`` block and kept padded for
the rest of the run. The class body is kept verbatim, so the trimmed
store that replaced it can be compared against it byte for byte
(``tests/test_namespace_oracle.py``). Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import CapacityError
from repro.hw.nvme.namespace import LBA_SIZE


class ReferenceNamespace:
    """An LBA-addressed block store.

    Blocks hold genuine byte payloads so the file systems and data formats
    built above the device can round-trip content; unwritten blocks read as
    zeroes, as they would from a freshly formatted namespace.
    """

    def __init__(self, namespace_id: int, capacity_blocks: int):
        if capacity_blocks < 1:
            raise CapacityError("namespace needs at least one block")
        self.namespace_id = namespace_id
        self.capacity_blocks = capacity_blocks
        self._blocks: Dict[int, bytes] = {}

    def check_range(self, lba: int, count: int) -> bool:
        return 0 <= lba and lba + count <= self.capacity_blocks

    def read_blocks(self, lba: int, count: int) -> bytes:
        if not self.check_range(lba, count):
            raise CapacityError(f"read [{lba}, {lba + count}) out of range")
        parts = []
        for index in range(lba, lba + count):
            parts.append(self._blocks.get(index, b"\x00" * LBA_SIZE))
        return b"".join(parts)

    def write_blocks(self, lba: int, data: bytes) -> int:
        """Write ``data`` (padded to LBA granularity); returns blocks written."""
        count = (len(data) + LBA_SIZE - 1) // LBA_SIZE
        if count == 0:
            count = 1
        if not self.check_range(lba, count):
            raise CapacityError(f"write [{lba}, {lba + count}) out of range")
        padded = data.ljust(count * LBA_SIZE, b"\x00")
        for i in range(count):
            self._blocks[lba + i] = padded[i * LBA_SIZE : (i + 1) * LBA_SIZE]
        return count
