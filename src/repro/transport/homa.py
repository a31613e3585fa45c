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
from functools import partial
from typing import Any, Callable, Dict, Tuple

from repro.common.errors import ConfigurationError
from repro.hw.net.frames import Frame, MAX_FRAME_PAYLOAD
from repro.hw.net.port import NetworkPort
from repro.sim import Event, Simulator

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


class HomaSocket:
    """A message-oriented endpoint with unscheduled/scheduled transmission.

    Frames arrive as port callbacks; complete messages leave through
    :attr:`deliver`, which the consumer installs (until then, one
    raises :class:`~repro.common.errors.ConfigurationError`).
    """

    def __init__(self, sim: Simulator, port: NetworkPort):
        self.sim = sim
        self.port = port
        #: Where a complete ``(src, payload, size)`` message goes.
        self.deliver: Callable[[Tuple[str, Any, int]], None] = self._unheard
        # Per-socket ids: the receiver keys on (source address, id) and
        # grants come back to this socket, so only its messages need
        # distinct ones.
        self._message_ids = itertools.count()
        self._grants: Dict[int, Event] = {}
        self._incoming: Dict[Tuple[str, int], int] = {}  # received byte counts
        self._payloads: Dict[Tuple[str, int], Any] = {}
        self._granted: set = set()
        self.unscheduled_only = 0
        port.listen(self._on_frame)

    @property
    def address(self) -> str:
        return self.port.address

    def sendto(self, dst: str, payload: Any, size: int) -> Event:
        """Transmit one message (unscheduled head, granted tail); the
        returned event fires once its last frame has been serialized.

        No process runs: the frames go out in turn
        (:meth:`NetworkPort.send_in_turn`), and a message longer than the
        unscheduled region holds its tail until the receiver's grant
        fires. The event is woken inside the last frame's serialization
        entry.
        """
        message_id = next(self._message_ids)
        mtu = MAX_FRAME_PAYLOAD - HOMA_HEADER
        head = []
        sent = 0
        # Unscheduled region: fire immediately.
        unscheduled = min(size, RTT_BYTES)
        first = True
        while sent < unscheduled or first:
            chunk = min(mtu, max(0, unscheduled - sent)) if not first else min(mtu, max(1, unscheduled))
            data = _HomaData(message_id, sent, size, payload if first else None)
            head.append(Frame(self.address, dst, data, chunk + HOMA_HEADER))
            sent += chunk
            first = False
        # Scheduled region: streamed once the receiver grants it.
        tail = []
        while sent < size:
            chunk = min(mtu, size - sent)
            data = _HomaData(message_id, sent, size, None)
            tail.append(Frame(self.address, dst, data, chunk + HOMA_HEADER))
            sent += chunk
        done = Event(self.sim)

        def finished() -> None:
            if not tail:
                self.unscheduled_only += 1
            done.wake()

        if tail:
            # Registered now; the grant cannot arrive before the receiver
            # has the whole head, i.e. after the head has been serialized.
            self._grants[message_id] = grant = Event(self.sim)
            head.append(grant)
        self.port.send_in_turn(head + tail, finished)
        return done

    def _unheard(self, message: Tuple[str, Any, int]) -> None:
        raise ConfigurationError(
            f"message from {message[0]} reached HOMA socket {self.address}, "
            "which has no consumer"
        )

    def _on_frame(self, frame: Frame) -> None:
        message = frame.payload
        if isinstance(message, _HomaGrant):
            waiter = self._grants.pop(message.message_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(None)
            return
        if not isinstance(message, _HomaData):
            return
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
            grant = _HomaGrant(message.message_id)
            self.sim.call_later(0.0, partial(
                self.port.send,
                Frame(self.address, frame.src, grant, HOMA_HEADER),
            ))
        if received >= message.total_size:
            del self._incoming[key]
            self._granted.discard(key)
            payload = self._payloads.pop(key, None)
            self.deliver((frame.src, payload, message.total_size))

