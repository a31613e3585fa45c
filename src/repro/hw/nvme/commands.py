"""NVMe command and completion formats (the subset Hyperion uses)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class NvmeOpcode(enum.Enum):
    """Command opcodes (the subset of the NVMe spec Hyperion uses)."""

    READ = 0x02
    WRITE = 0x01
    FLUSH = 0x00


class NvmeStatus(enum.Enum):
    """Completion status codes."""

    SUCCESS = 0x0
    COMMAND_ABORTED = 0x07
    LBA_OUT_OF_RANGE = 0x80
    UNRECOVERED_READ_ERROR = 0x281  # media error SCT, injected or real


@dataclass
class NvmeCommand:
    """One submission-queue entry."""

    opcode: NvmeOpcode
    namespace_id: int = 1
    lba: int = 0
    block_count: int = 1
    data: Optional[bytes] = None
    #: Set by the queue pair it is submitted to: unique among that pair's
    #: commands, as an NVMe CID is per submission queue.
    cid: int = field(default=-1, init=False)

    def __post_init__(self) -> None:
        if self.block_count < 1:
            raise ValueError("block_count must be >= 1")


@dataclass
class NvmeCompletion:
    """One completion-queue entry."""

    cid: int
    status: NvmeStatus
    data: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.status is NvmeStatus.SUCCESS
