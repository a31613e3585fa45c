"""A Corfu-style shared log over network-attached flash (paper §2.4, [20]).

Three roles, all CPU-free on the DPU side:

* **Sequencer** — hands out monotonically increasing log positions (a pure
  network service; its counter is soft state reconstructible from the log);
* **Log units** — write-once position-addressed flash storage; an attempt
  to overwrite a filled position is rejected, which is what makes the log's
  ordering authoritative;
* **Client** — reserves a position, then chain-writes the entry to every
  replica; reads hit the head replica and fail over on fault injection.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode
from repro.hw.nvme.controller import NvmeController
from repro.hw.nvme.namespace import LBA_SIZE
from repro.transport.rpc import RpcClient, RpcError, RpcServer


def _blocks(length: int) -> int:
    """Blocks an entry of *length* bytes takes (an empty one takes one)."""
    return max(1, -(-length // LBA_SIZE))


class CorfuSequencer:
    """Issues log positions; one RPC per append."""

    def __init__(self, server: RpcServer):
        self._next_position = 0
        server.register("corfu.next", self._next)
        server.register("corfu.tail", self._tail)

    def _next(self, count: int = 1) -> int:
        position = self._next_position
        self._next_position += count
        return position

    def _tail(self) -> int:
        return self._next_position


class CorfuLogUnit:
    """Write-once storage for log entries, backed by NVMe flash.

    An entry takes as many blocks as its bytes need, from the next free
    LBA, and reads back exactly as appended.
    """

    def __init__(self, server: RpcServer, controller: NvmeController):
        self.controller = controller
        self.qp = controller.create_queue_pair()
        self._written: Dict[int, Tuple[int, int]] = {}  # position -> (lba, length)
        self._next_lba = 0
        self.failed = False
        server.register("corfu.write", self._write)
        server.register("corfu.read", self._read)
        server.register("corfu.filled", self._filled)

    def fail(self) -> None:
        """Fault injection: the unit stops serving."""
        self.failed = True

    def _check_alive(self) -> None:
        if self.failed:
            raise ProtocolError("log unit failed")

    def _write(self, position: int, data: bytes):
        self._check_alive()
        if position in self._written:
            raise ProtocolError(f"position {position} already written")
        lba = self._next_lba
        self._next_lba += _blocks(len(data))
        completion = yield self.qp.submit(
            NvmeCommand(NvmeOpcode.WRITE, lba=lba, data=bytes(data))
        )
        if not completion.ok:
            raise ProtocolError("flash write failed")
        self._written[position] = (lba, len(data))
        return True

    def _read(self, position: int):
        self._check_alive()
        if position not in self._written:
            raise ProtocolError(f"position {position} not written")
        lba, length = self._written[position]
        completion = yield self.qp.submit(
            NvmeCommand(NvmeOpcode.READ, lba=lba, block_count=_blocks(length))
        )
        if not completion.ok:
            raise ProtocolError("flash read failed")
        return completion.data[:length]

    def _filled(self, position: int) -> bool:
        self._check_alive()
        return position in self._written


class CorfuClient:
    """Appends and reads against a sequencer and a replica chain."""

    def __init__(
        self,
        client: RpcClient,
        sequencer_address: str,
        log_unit_addresses: List[str],
    ):
        if not log_unit_addresses:
            raise ProtocolError("need at least one log unit")
        self.client = client
        self.sequencer = sequencer_address
        self.log_units = list(log_unit_addresses)
        self.appends = 0

    def append(self, data: bytes):
        """Process: reserve a position, chain-write all replicas; returns
        the assigned position."""
        position = yield from self.client.call(
            self.sequencer, "corfu.next", request_size=16, response_size=16
        )
        for unit in self.log_units:
            yield from self.client.call(
                unit, "corfu.write", position, bytes(data),
                request_size=32 + len(data), response_size=16,
            )
        self.appends += 1
        return position

    def read(self, position: int, entry_size: int = 4096):
        """Process: read from the first live replica."""
        last_error: Optional[Exception] = None
        for unit in self.log_units:
            try:
                data = yield from self.client.call(
                    unit, "corfu.read", position,
                    request_size=24, response_size=entry_size,
                )
                return data
            except RpcError as exc:
                last_error = exc
        raise ProtocolError(f"no replica served position {position}: {last_error}")

    def tail(self):
        """Process: current log tail from the sequencer."""
        position = yield from self.client.call(
            self.sequencer, "corfu.tail", request_size=16, response_size=16
        )
        return position
