"""UDP: unreliable datagrams with MTU fragmentation and reassembly."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.hw.net.frames import Frame, MAX_FRAME_PAYLOAD
from repro.hw.net.port import NetworkPort
from repro.sim import Simulator, Store

#: IP + UDP headers.
UDP_HEADER = 28

#: Incomplete datagrams one socket keeps for reassembly at a time.
MAX_PARTIAL_DATAGRAMS = 64


@dataclass
class _Fragment:
    datagram_id: int
    index: int
    total: int
    payload: Any  # carried only on fragment 0
    payload_size: int


class UdpSocket:
    """A datagram endpoint bound to one network port.

    Datagrams larger than the MTU fragment across frames; the receiver
    reassembles by datagram id. There is no reliability: a dropped fragment
    silently kills the datagram (as with real UDP/IP fragmentation).
    Frames reach the socket as callbacks from its port (no receive
    process); complete datagrams leave through :attr:`deliver`.
    """

    def __init__(self, sim: Simulator, port: NetworkPort):
        self.sim = sim
        self.port = port
        self.rx: Store = Store(sim)
        self._partial: Dict[Tuple[str, int], Dict[int, _Fragment]] = {}
        # Per-socket ids: reassembly keys on (source address, id), so
        # only this socket's datagrams need distinct ones.
        self._datagram_ids = itertools.count()
        self.datagrams_sent = 0
        self.datagrams_received = 0
        #: Incomplete datagrams dropped to keep ``_partial`` bounded.
        self.reassembly_evicted = 0
        #: Where a complete ``(src, payload, size)`` datagram goes: the
        #: :attr:`rx` queue unless an upper layer takes them itself.
        self.deliver: Callable[[Tuple[str, Any, int]], None] = (
            self.rx.put_nowait
        )
        port.listen(self._on_frame)

    @property
    def address(self) -> str:
        return self.port.address

    def sendto(self, dst: str, payload: Any, size: int):
        """Process: transmit one datagram of modeled ``size`` bytes."""
        datagram_id = next(self._datagram_ids)
        mtu_payload = MAX_FRAME_PAYLOAD - UDP_HEADER
        total = max(1, -(-size // mtu_payload))
        remaining = size
        for index in range(total):
            chunk = min(mtu_payload, remaining)
            remaining -= chunk
            fragment = _Fragment(
                datagram_id=datagram_id,
                index=index,
                total=total,
                payload=payload if index == 0 else None,
                payload_size=size,
            )
            frame = Frame(self.port.address, dst, fragment, chunk + UDP_HEADER)
            yield from self.port.send(frame)
        self.datagrams_sent += 1

    def _on_frame(self, frame: Frame) -> None:
        fragment = frame.payload
        if not isinstance(fragment, _Fragment):
            return  # not UDP traffic
        if fragment.total == 1:
            self.datagrams_received += 1
            self.deliver((frame.src, fragment.payload, fragment.payload_size))
            return
        key = (frame.src, fragment.datagram_id)
        pending = self._partial
        parts = pending.get(key)
        if parts is None:
            if len(pending) >= MAX_PARTIAL_DATAGRAMS:
                # A datagram that lost a fragment never completes; the
                # oldest incomplete one makes room (dicts keep insertion
                # order), as an IP reassembly timer would have.
                del pending[next(iter(pending))]
                self.reassembly_evicted += 1
            parts = pending[key] = {}
        parts[fragment.index] = fragment
        if len(parts) == fragment.total:
            del pending[key]
            head = parts[0]
            self.datagrams_received += 1
            self.deliver((frame.src, head.payload, head.payload_size))
