"""The send path as generator processes: the oracle for the sends that
return an event.

``NetworkPort.send`` and the UDP and HOMA ``sendto`` used to be
processes: a sender ran ``yield from port.send(frame)`` once per frame
and resumed in each frame's serialization entry, and a HOMA receiver
spawned a process to send its grant. They are kept here as the
reference the event-returning versions must match entry for entry
(``tests/test_send_oracle.py``). Nothing in the package imports this
module.
"""

from repro.common.errors import ConfigurationError
from repro.hw.net.frames import Frame, MAX_FRAME_PAYLOAD
from repro.sim import Event
from repro.transport.homa import (
    HOMA_HEADER,
    RTT_BYTES,
    HomaSocket,
    _HomaData,
    _HomaGrant,
)
from repro.transport.udp import UDP_HEADER, UdpSocket, _Fragment


def port_send(port, frame):
    """Process: transmit a frame toward its destination."""
    link = port._tx_link
    if link is None:
        raise ConfigurationError(
            f"port {port.address} has no route to {frame.dst}"
        )
    port._tx_frames.inc()
    yield link.enqueue(frame)


class ReferenceUdpSocket(UdpSocket):
    """A :class:`UdpSocket` whose ``sendto`` is the process it was."""

    def sendto(self, dst, payload, size):
        """Process: transmit one datagram of modeled ``size`` bytes."""
        datagram_id = next(self._datagram_ids)
        mtu_payload = MAX_FRAME_PAYLOAD - UDP_HEADER
        total = max(1, -(-size // mtu_payload))
        remaining = size
        for index in range(total):
            chunk = min(mtu_payload, remaining)
            remaining -= chunk
            fragment = _Fragment(
                datagram_id, index, total,
                payload if index == 0 else None, size,
            )
            frame = Frame(self.port.address, dst, fragment, chunk + UDP_HEADER)
            yield from port_send(self.port, frame)
        self.datagrams_sent += 1


class ReferenceHomaSocket(HomaSocket):
    """A :class:`HomaSocket` whose ``sendto`` is the process it was and
    whose receiver spawns a process per grant."""

    def sendto(self, dst, payload, size):
        """Process: transmit one message (unscheduled head, granted tail)."""
        message_id = next(self._message_ids)
        mtu = MAX_FRAME_PAYLOAD - HOMA_HEADER
        sent = 0
        unscheduled = min(size, RTT_BYTES)
        first = True
        while sent < unscheduled or first:
            chunk = min(mtu, max(0, unscheduled - sent)) if not first else min(mtu, max(1, unscheduled))
            data = _HomaData(message_id, sent, size, payload if first else None)
            yield from port_send(
                self.port, Frame(self.address, dst, data, chunk + HOMA_HEADER)
            )
            sent += chunk
            first = False
        if sent >= size:
            self.unscheduled_only += 1
            return
        grant_event = Event(self.sim)
        self._grants[message_id] = grant_event
        yield grant_event
        while sent < size:
            chunk = min(mtu, size - sent)
            data = _HomaData(message_id, sent, size, None)
            yield from port_send(
                self.port, Frame(self.address, dst, data, chunk + HOMA_HEADER)
            )
            sent += chunk

    def _on_frame(self, frame):
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
        if (
            message.total_size > RTT_BYTES
            and received >= min(RTT_BYTES, message.total_size)
            and received < message.total_size
            and key not in self._granted
        ):
            self._granted.add(key)
            grant = _HomaGrant(message.message_id)
            self.sim.spawn(port_send(
                self.port, Frame(self.address, frame.src, grant, HOMA_HEADER)
            ))
        if received >= message.total_size:
            del self._incoming[key]
            self._granted.discard(key)
            payload = self._payloads.pop(key, None)
            self.deliver((frame.src, payload, message.total_size))
