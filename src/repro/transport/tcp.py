"""TCP: connection-oriented, reliable, in-order byte-stream messages.

The model keeps the costs that matter at datapath scale: a 3-way handshake
before first use, MSS segmentation, cumulative ACK processing, per-segment
software/firmware cost at both ends, and go-back-N retransmission on loss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Tuple

from repro.common.errors import ProtocolError
from repro.hw.net.frames import Frame, MAX_FRAME_PAYLOAD
from repro.hw.net.port import NetworkPort
from repro.sim import TIMED_OUT, Event, Simulator, Store

#: IP + TCP headers.
TCP_HEADER = 40
MSS = MAX_FRAME_PAYLOAD - TCP_HEADER
#: Protocol processing per segment (checksums, state machine).
SEGMENT_PROCESSING = 500e-9
#: Retransmission timeout, sized for intra-rack RTTs. On a WAN-RTT path
#: every segment would retransmit spuriously before its ACK could arrive
#: (and ``connect`` gives up after 16 SYNs).
RTO = 200e-6

#: A connection id: the initiating stack's address and its sequence
#: number. Every stack keys its connections on it, in both directions,
#: so it must be unique among all stacks a stack talks to.
ConnId = Tuple[str, int]


@dataclass
class _Syn:
    conn_id: ConnId


@dataclass
class _SynAck:
    conn_id: ConnId


@dataclass
class _DataSegment:
    conn_id: ConnId
    message_id: int
    index: int
    total: int
    payload: Any
    payload_size: int


@dataclass
class _Ack:
    conn_id: ConnId
    message_id: int
    index: int


class TcpConnection:
    """One established connection; created via ``TcpStack.connect``."""

    def __init__(self, stack: "TcpStack", peer: str, conn_id: ConnId):
        self.stack = stack
        self.peer = peer
        self.conn_id = conn_id
        self.rx: Store = Store(stack.sim)
        self._message_ids = itertools.count()
        self._acks: Dict[Tuple[int, int], Event] = {}
        self._reassembly: Dict[int, Dict[int, _DataSegment]] = {}
        self.retransmissions = 0

    def send(self, payload: Any, size: int):
        """Process: reliably deliver one message to the peer."""
        sim = self.stack.sim
        message_id = next(self._message_ids)
        total = max(1, -(-size // MSS))
        remaining = size
        for index in range(total):
            chunk = min(MSS, remaining)
            remaining -= chunk
            segment = _DataSegment(
                self.conn_id, message_id, index, total,
                payload if index == 0 else None, size,
            )
            yield sim.timeout(SEGMENT_PROCESSING)
            attempts = 0
            while True:
                # One event per attempt, registered before the send: an
                # ACK of any attempt answers the one waiting now.
                acked = Event(sim)
                self._acks[(message_id, index)] = acked
                yield self.stack.port.send(
                    Frame(self.stack.address, self.peer, segment, chunk + TCP_HEADER)
                )
                sim.expire_later(RTO, acked)
                if (yield acked) is not TIMED_OUT:
                    break
                attempts += 1
                self.retransmissions += 1
                if attempts > 16:
                    raise ProtocolError("TCP gave up after 16 retransmissions")

    def recv(self):
        """Event: next ``(payload, size)`` message."""
        return self.rx.get()

    # -- internal ------------------------------------------------------------
    def _on_segment(self, segment: _DataSegment):
        sim = self.stack.sim
        yield sim.timeout(SEGMENT_PROCESSING)
        ack = _Ack(self.conn_id, segment.message_id, segment.index)
        yield self.stack.port.send(
            Frame(self.stack.address, self.peer, ack, TCP_HEADER)
        )
        parts = self._reassembly.setdefault(segment.message_id, {})
        if segment.index in parts:
            return  # duplicate after retransmission
        parts[segment.index] = segment
        if len(parts) == segment.total:
            del self._reassembly[segment.message_id]
            yield self.rx.put((parts[0].payload, parts[0].payload_size))

    def _on_ack(self, ack: _Ack) -> None:
        event = self._acks.pop((ack.message_id, ack.index), None)
        if event is not None and not event.triggered:
            event.succeed(None)


class TcpStack:
    """Per-endpoint TCP state: listening, connections, demux.

    Frames arrive as port callbacks; a process pulls the streams
    (:meth:`accept`, :meth:`TcpConnection.recv`)."""

    def __init__(self, sim: Simulator, port: NetworkPort):
        self.sim = sim
        self.port = port
        self.connections: Dict[ConnId, TcpConnection] = {}
        self.accept_queue: Store = Store(sim)
        self._pending_connect: Dict[ConnId, Event] = {}
        self._conn_ids = itertools.count()
        port.listen(self._on_frame)

    @property
    def address(self) -> str:
        return self.port.address

    def connect(self, peer: str):
        """Process: 3-way handshake (SYN retransmitted on loss)."""
        conn_id = (self.address, next(self._conn_ids))
        attempts = 0
        while True:
            done = Event(self.sim)
            self._pending_connect[conn_id] = done
            yield self.port.send(
                Frame(self.address, peer, _Syn(conn_id), TCP_HEADER)
            )
            self.sim.expire_later(RTO, done)
            if (yield done) is not TIMED_OUT:
                break  # SYN-ACK received
            attempts += 1
            if attempts > 16:
                raise ProtocolError("TCP connect gave up after 16 SYNs")
        connection = TcpConnection(self, peer, conn_id)
        self.connections[conn_id] = connection
        # Final ACK of the handshake.
        yield self.port.send(
            Frame(self.address, peer, _Ack(conn_id, -1, -1), TCP_HEADER)
        )
        return connection

    def accept(self):
        """Event: next incoming TcpConnection."""
        return self.accept_queue.get()

    def _on_frame(self, frame: Frame) -> None:
        message = frame.payload
        if isinstance(message, _Syn):
            if message.conn_id not in self.connections:
                connection = TcpConnection(self, frame.src, message.conn_id)
                self.connections[message.conn_id] = connection
                self.accept_queue.put_nowait(connection)
            # Duplicate SYNs (retransmissions) just re-trigger the ack.
            self.sim.call_later(0.0, partial(
                self.port.send,
                Frame(self.address, frame.src, _SynAck(message.conn_id),
                      TCP_HEADER),
            ))
        elif isinstance(message, _SynAck):
            waiter = self._pending_connect.pop(message.conn_id, None)
            # An expired waiter: connect gave up before the SYN-ACK came.
            if waiter is not None and not waiter.triggered:
                waiter.succeed(None)
        elif isinstance(message, _DataSegment):
            connection = self.connections.get(message.conn_id)
            if connection is not None:
                self.sim.spawn(connection._on_segment(message))
        elif isinstance(message, _Ack):
            connection = self.connections.get(message.conn_id)
            if connection is not None and message.index >= 0:
                connection._on_ack(message)
