"""The replication log: every region's durable record of its own writes.

Geo-replication here is *log shipping*: each region appends its locally
accepted writes to an ordered :class:`ReplicationLog` and ships the tail
to every peer. An entry carries its simulated-time append ``stamp`` and
``origin`` region, and the pair ``(stamp, origin)`` is the total order
used for last-writer-wins conflict resolution — deterministic, and safe
to replay in any order (a stale entry re-shipped after a heal loses to
any newer write it races with).

:class:`Consistency` picks how many peer acknowledgements a write waits
for before the client sees success — the knob E17's mode sweep turns:

* ``ASYNC`` — ack immediately; replication lag is the RPO exposure.
* ``QUORUM`` — ack once a majority of regions (self included) have it.
* ``SYNC`` — ack only when every peer has it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.telemetry import MetricScope

__all__ = ["Consistency", "LogEntry", "ReplicationLog"]

#: Entries coalesced into one ``repl.ship`` request.
SHIP_BATCH = 32


class Consistency(enum.Enum):
    """How many peer acks a write waits for before it is acknowledged."""

    ASYNC = "async"
    QUORUM = "quorum"
    SYNC = "sync"


@dataclass(frozen=True)
class LogEntry:
    """One replicated write; ``(stamp, origin)`` is its LWW version."""

    seq: int
    op: str  # "put" | "delete"
    key: bytes
    value: Optional[bytes]
    stamp: float
    origin: str
    #: The sampled :class:`~repro.telemetry.TraceContext` of the write
    #: that appended this entry (``None`` when unsampled). Excluded from
    #: equality, :meth:`line`, and ``wire_size`` — causality metadata,
    #: not replicated state.
    trace: Any = field(default=None, compare=False, repr=False)

    @property
    def wire_size(self) -> int:
        """Bytes this entry occupies inside a shipped batch."""
        return 32 + len(self.key) + (len(self.value) if self.value else 0)

    def line(self) -> str:
        """Canonical one-line rendering (stable across runs)."""
        value = self.value.hex() if self.value is not None else "-"
        return (f"{self.seq} {self.op} {self.key.hex()} {value} "
                f"stamp={self.stamp!r} origin={self.origin}")


class ReplicationLog:
    """An append-only, in-order record of one region's own writes.

    Shippers read it by offset (:meth:`since`), so the log doubles as
    the replication cursor store: a peer's acknowledged high-water mark
    is simply an index into this list, and the acked-but-unshipped
    suffix *is* the RPO exposure toward that peer.
    """

    def __init__(self, metrics: MetricScope):
        self.entries: List[LogEntry] = []
        #: Sequence number of ``entries[0]``: everything below it has
        #: been truncated after every peer acknowledged past it.
        self.base = 0
        self._appended = metrics.counter("appended")
        self._truncated = metrics.counter("truncated")
        self._head_gauge = metrics.gauge("head")
        self._retained_gauge = metrics.gauge("retained")

    @property
    def head(self) -> int:
        """Sequence number the next append will get."""
        return self.base + len(self.entries)

    def append(self, op: str, key: bytes, value: Optional[bytes],
               stamp: float, origin: str, trace: Any = None) -> LogEntry:
        entry = LogEntry(self.head, op, key, value, stamp, origin, trace)
        self.entries.append(entry)
        self._appended.value += 1
        self._head_gauge.set(self.head)
        self._retained_gauge.set(len(self.entries))
        return entry

    def entry(self, seq: int) -> LogEntry:
        """The retained entry with sequence number *seq*."""
        if seq < self.base:
            raise KeyError(f"log entry {seq} truncated (base={self.base})")
        return self.entries[seq - self.base]

    def since(self, seq: int) -> List[LogEntry]:
        """Up to :data:`SHIP_BATCH` entries starting at sequence number
        *seq*."""
        if seq < self.base:
            raise KeyError(
                f"replication cursor {seq} below truncation base {self.base}"
            )
        at = seq - self.base
        return self.entries[at:at + SHIP_BATCH]

    def truncate_through(self, seq: int) -> int:
        """Drop every entry with sequence number below *seq*.

        The caller (the region, on peer acks) guarantees every shipper's
        cursor and every peer's acknowledged high-water mark has passed
        *seq*; truncating further than ``head`` is clamped. Returns the
        number of entries dropped and counts them on ``truncated``.
        """
        drop = min(seq, self.head) - self.base
        if drop <= 0:
            return 0
        del self.entries[:drop]
        self.base += drop
        self._truncated.value += drop
        self._retained_gauge.set(len(self.entries))
        return drop
