"""HOMA: a receiver-driven, message-oriented datacenter transport.

Following Ousterhout's design (cited in paper §2): the first RTTbytes of a
message go out *unscheduled* (no permission needed), so short messages
complete in one flight; the remainder waits for receiver GRANTs, letting
receivers enforce SRPT-like priority. Short RPCs — the common case in the
paper's workloads — beat TCP because they skip handshakes and ACK clocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.hw.net.frames import Frame, MAX_FRAME_PAYLOAD
from repro.hw.net.port import NetworkPort
from repro.sim import Event, Simulator, Store

HOMA_HEADER = 40
#: Bytes a sender may push without a grant (~one 100 GbE bandwidth-delay).
RTT_BYTES = 10_000


@dataclass
class _HomaData:
    message_id: int
    offset: int
    total_size: int
    payload: Any  # carried on the first packet only


@dataclass
class _HomaGrant:
    message_id: int
    granted_up_to: int


class HomaSocket:
    """A message-oriented endpoint with unscheduled/scheduled transmission."""

    def __init__(self, sim: Simulator, port: NetworkPort):
        self.sim = sim
        self.port = port
        self.rx: Store = Store(sim)
        #: Where a complete ``(src, payload, size)`` message goes: the
        #: :meth:`recv` queue unless an upper layer takes them itself.
        self.deliver: Callable[[Tuple[str, Any, int]], None] = (
            self.rx.put_nowait
        )
        # Per-socket ids: the receiver keys on (source address, id) and
        # grants come back to this socket, so only its messages need
        # distinct ones.
        self._message_ids = itertools.count()
        self._grants: Dict[int, Event] = {}
        self._incoming: Dict[Tuple[str, int], int] = {}  # received byte counts
        self._payloads: Dict[Tuple[str, int], Any] = {}
        self._granted: set = set()
        self.messages_sent = 0
        self.unscheduled_only = 0
        sim.spawn(self._rx_loop())

    @property
    def address(self) -> str:
        return self.port.address

    def send(self, dst: str, payload: Any, size: int):
        """Process: transmit one message (unscheduled head, granted tail)."""
        message_id = next(self._message_ids)
        mtu = MAX_FRAME_PAYLOAD - HOMA_HEADER
        sent = 0
        # Unscheduled region: fire immediately.
        unscheduled = min(size, RTT_BYTES)
        first = True
        while sent < unscheduled or first:
            chunk = min(mtu, max(0, unscheduled - sent)) if not first else min(mtu, max(1, unscheduled))
            data = _HomaData(message_id, sent, size, payload if first else None)
            yield from self.port.send(
                Frame(self.address, dst, data, chunk + HOMA_HEADER)
            )
            sent += chunk
            first = False
        if sent >= size:
            self.messages_sent += 1
            self.unscheduled_only += 1
            return
        # Scheduled region: wait for the receiver's grant, then stream.
        grant_event = Event(self.sim)
        self._grants[message_id] = grant_event
        yield grant_event
        while sent < size:
            chunk = min(mtu, size - sent)
            data = _HomaData(message_id, sent, size, None)
            yield from self.port.send(
                Frame(self.address, dst, data, chunk + HOMA_HEADER)
            )
            sent += chunk
        self.messages_sent += 1

    def recv(self):
        """Event: next ``(src, payload, size)`` message."""
        return self.rx.get()

    def _rx_loop(self):
        while True:
            frame = yield self.port.receive()
            message = frame.payload
            if isinstance(message, _HomaGrant):
                waiter = self._grants.pop(message.message_id, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(None)
                continue
            if not isinstance(message, _HomaData):
                continue
            key = (frame.src, message.message_id)
            if message.payload is not None:
                self._payloads[key] = message.payload
            chunk = frame.payload_size - HOMA_HEADER
            received = self._incoming.get(key, 0) + chunk
            self._incoming[key] = received
            # Issue a grant once the unscheduled region has landed.
            if (
                message.total_size > RTT_BYTES
                and received >= min(RTT_BYTES, message.total_size)
                and received < message.total_size
                and key not in self._granted
            ):
                self._granted.add(key)
                grant = _HomaGrant(message.message_id, message.total_size)
                self.sim.spawn(self._send_grant(frame.src, grant))
            if received >= message.total_size:
                del self._incoming[key]
                self._granted.discard(key)
                payload = self._payloads.pop(key, None)
                self.deliver((frame.src, payload, message.total_size))

    def _send_grant(self, dst: str, grant: _HomaGrant):
        yield from self.port.send(Frame(self.address, dst, grant, HOMA_HEADER))
