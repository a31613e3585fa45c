"""KV-SSD: the device speaks get/put, not blocks (paper §2, §2.4, [28]).

The device runs an LSM tree beside the flash: puts land in an in-device
memtable with a write-ahead log append; gets consult the memtable and then
SSTable runs, each run costing a flash read. Flushed SSTables serialize to
actual namespace blocks, so the on-flash state is real bytes.
"""

from __future__ import annotations

from repro.common.errors import CapacityError
from repro.datastruct.lsm import LsmTree
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode
from repro.hw.nvme.controller import NvmeController
from repro.hw.nvme.namespace import LBA_SIZE
from repro.sim import Simulator
from repro.transport.rpc import BatchOp, RpcClient, RpcServer

#: In-device KV engine time per command (index walk, request parsing) —
#: the processing a one-sided RDMA read of a cached value bypasses.
KV_REQUEST_PROCESSING = 2e-6

#: Where the write-ahead log and the flushed SSTables start on namespace 1.
WAL_START_LBA = 0
SSTABLE_START_LBA = 1024

#: The ``kv.*`` wire format: a request is this header plus its key (and
#: value) bytes; a write is answered by a ``KV_ACK``-byte ack and a
#: ``kv.get`` by a ``KV_VALUE``-byte value budget.
KV_HEADER = 32
KV_ACK = 16
KV_VALUE = 128


def kv_op(method: str, *args: bytes) -> BatchOp:
    """One ``kv.*`` sub-op of a batch, sized as its single-key request."""
    return BatchOp(method, args, KV_HEADER + sum(map(len, args)),
                   KV_VALUE if method == "kv.get" else KV_ACK)


class KvSsd:
    """The device-level KV engine bound to one NVMe controller."""

    def __init__(
        self,
        sim: Simulator,
        controller: NvmeController,
        memtable_limit: int = 256,
    ):
        self.sim = sim
        self.controller = controller
        self.qp = controller.create_queue_pair()
        controller.start()
        self._metrics = sim.telemetry.unique_scope(
            f"kvssd.{controller.name}"
        )
        self.lsm = LsmTree(
            memtable_limit=memtable_limit, metrics=self._metrics.scope("lsm")
        )
        self._wal_lba = WAL_START_LBA
        self._sstable_lba = SSTABLE_START_LBA
        self._gets = self._metrics.counter("gets")
        self._puts = self._metrics.counter("puts")

    @property
    def puts(self) -> int:
        return self._puts.value

    # -- device commands (timed processes) ------------------------------------
    def _wal_append(self, key: bytes, value: bytes, tombstone: bool):
        """Process: one durable write-ahead record."""
        record = (
            len(key).to_bytes(4, "little")
            + len(value).to_bytes(4, "little")
            + (b"\x01" if tombstone else b"\x00")
            + key
            + value
        )
        completion = yield self.qp.submit(
            NvmeCommand(NvmeOpcode.WRITE, lba=self._wal_lba, data=record)
        )
        if not completion.ok:
            raise CapacityError("WAL append failed")
        self._wal_lba += max(1, (len(record) + LBA_SIZE - 1) // LBA_SIZE)

    def put(self, key: bytes, value: bytes):
        """Process: WAL append + memtable insert; flush spills to flash."""
        with self.sim.tracer.span(
            "kv.put", "kvssd", device=self.controller.name,
        ):
            yield self.sim.timeout(KV_REQUEST_PROCESSING)
            yield from self._wal_append(key, value, tombstone=False)
            flushes_before = self.lsm.flushes
            self.lsm.put(key, value)
            if self.lsm.flushes > flushes_before:
                yield from self._persist_newest_sstable()
            self._puts.inc()

    def get(self, key: bytes):
        """Process: memtable first, then one flash read per run consulted."""
        with self.sim.tracer.span(
            "kv.get", "kvssd", device=self.controller.name,
        ) as span:
            yield self.sim.timeout(KV_REQUEST_PROCESSING)
            runs_consulted = self.lsm.search_cost(key) - 1  # memtable is free
            span.annotate(runs_consulted=max(0, runs_consulted))
            for _ in range(max(0, runs_consulted)):
                yield self.qp.submit(NvmeCommand(NvmeOpcode.READ, lba=0))
            self._gets.inc()
            return self.lsm.get(key)

    def delete(self, key: bytes):
        yield self.sim.timeout(KV_REQUEST_PROCESSING)
        yield from self._wal_append(key, b"", tombstone=True)
        self.lsm.delete(key)
        return True

    def scan(self, start: bytes, end: bytes, limit: int = 100):
        """Process: ordered range scan."""
        results = []
        for key, value in self.lsm.items():
            if start <= key < end:
                results.append((key, value))
                if len(results) >= limit:
                    break
        # One flash read per SSTable run touched by the scan.
        for _ in range(len(self.lsm.l0) + (1 if self.lsm.l1 else 0)):
            yield self.qp.submit(NvmeCommand(NvmeOpcode.READ, lba=0))
        return results

    def _persist_newest_sstable(self):
        image = self.lsm.l0[0].serialize()
        completion = yield self.qp.submit(
            NvmeCommand(NvmeOpcode.WRITE, lba=self._sstable_lba, data=image)
        )
        if not completion.ok:
            raise CapacityError("SSTable persist failed")
        self._sstable_lba += max(1, (len(image) + LBA_SIZE - 1) // LBA_SIZE)


class KvSsdService:
    """Exports a KvSsd over the Willow-style RPC interface."""

    def __init__(self, server: RpcServer, device: KvSsd):
        self.device = device
        server.register("kv.get", device.get)
        server.register("kv.put", device.put)
        server.register("kv.delete", device.delete)
        server.register("kv.scan", device.scan)


class KvSsdClient:
    """Client stub for a remote KV-SSD."""

    def __init__(self, client: RpcClient, target_address: str):
        self.client = client
        self.target = target_address

    def get(self, key: bytes, expected_value_size: int = KV_VALUE):
        value = yield from self.client.call(
            self.target, "kv.get", bytes(key),
            request_size=KV_HEADER + len(key), response_size=expected_value_size,
        )
        return value

    def put(self, key: bytes, value: bytes):
        yield from self.client.call(
            self.target, "kv.put", bytes(key), bytes(value),
            request_size=KV_HEADER + len(key) + len(value), response_size=KV_ACK,
        )

    def delete(self, key: bytes):
        yield from self.client.call(
            self.target, "kv.delete", bytes(key),
            request_size=KV_HEADER + len(key), response_size=KV_ACK,
        )

    def scan(self, start: bytes, end: bytes, limit: int = 100):
        results = yield from self.client.call(
            self.target, "kv.scan", bytes(start), bytes(end), limit,
            request_size=64, response_size=limit * 64,
        )
        return results
