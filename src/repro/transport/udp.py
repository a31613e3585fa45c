"""UDP: unreliable datagrams with MTU fragmentation and reassembly."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.common.errors import ConfigurationError
from repro.hw.net.frames import Frame, MAX_FRAME_PAYLOAD
from repro.hw.net.port import NetworkPort
from repro.sim import Event, Simulator

#: IP + UDP headers.
UDP_HEADER = 28
#: Datagram bytes one frame carries.
_MTU_PAYLOAD = MAX_FRAME_PAYLOAD - UDP_HEADER

#: Incomplete datagrams one socket keeps for reassembly at a time.
MAX_PARTIAL_DATAGRAMS = 64


class _Datagram(Frame):
    """A datagram that fits one frame, carried whole (plus UDP_HEADER)."""

    __slots__ = ()


class _Fragment(NamedTuple):
    """One frame's share of a larger datagram."""

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
    process); complete datagrams leave through :attr:`deliver`, which the
    consumer installs (until then, one raises ``ConfigurationError``).
    """

    def __init__(self, sim: Simulator, port: NetworkPort):
        self.sim = sim
        self.port = port
        self._partial: Dict[Tuple[str, int], Dict[int, _Fragment]] = {}
        # Per-socket ids: reassembly keys on (source address, id), so
        # only this socket's datagrams need distinct ones.
        self._datagram_ids = itertools.count()
        #: Incomplete datagrams dropped to keep ``_partial`` bounded.
        self.reassembly_evicted = 0
        #: Where a complete ``(src, payload, size)`` datagram goes.
        self.deliver: Callable[[Tuple[str, Any, int]], None] = self._unheard
        port.listen(self._on_frame)

    @property
    def address(self) -> str:
        return self.port.address

    def sendto(self, dst: str, payload: Any, size: int) -> Event:
        """Transmit one datagram of modeled ``size`` bytes; the returned
        event fires once its last frame has been serialized.

        A datagram that fits one frame is one :class:`_Datagram` and
        returns that frame's own link event. A larger one sends its
        numbered fragments in turn
        (:meth:`NetworkPort.send_in_turn`), and its event is woken
        inside the last fragment's serialization entry. As with
        :meth:`NetworkPort.send`, wait on the event in the entry that
        sent, or never.
        """
        src = self.port.address
        if size <= _MTU_PAYLOAD:
            return self.port.send(_Datagram(src, dst, payload, size + UDP_HEADER))
        datagram_id = next(self._datagram_ids)
        total = -(-size // _MTU_PAYLOAD)
        frames = [
            Frame(
                src, dst,
                _Fragment(datagram_id, index, total,
                          payload if index == 0 else None, size),
                min(_MTU_PAYLOAD, size - index * _MTU_PAYLOAD) + UDP_HEADER,
            )
            for index in range(total)
        ]
        done = Event(self.sim)
        self.port.send_in_turn(frames, done.wake)
        return done

    def _unheard(self, datagram: Tuple[str, Any, int]) -> None:
        raise ConfigurationError(
            f"datagram from {datagram[0]} reached UDP socket {self.address}, "
            "which has no consumer"
        )

    def _on_frame(self, frame: Frame) -> None:
        if type(frame) is _Datagram:
            self.deliver((frame.src, frame.payload,
                          frame.payload_size - UDP_HEADER))
            return
        fragment = frame.payload
        if not isinstance(fragment, _Fragment):
            return  # not UDP traffic
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
            self.deliver((frame.src, head.payload, head.payload_size))
