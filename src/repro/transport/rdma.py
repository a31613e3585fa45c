"""RDMA: one-sided reads and writes against registered memory regions.

One-sided operations complete entirely in the remote NIC — no remote
software runs — which is why disaggregated designs (paper §1(3), §2.4) lean
on them. The model charges a small fixed remote-NIC latency instead of a
request-handler round through a CPU.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import CapacityError, ProtocolError
from repro.hw.net.frames import Frame, MAX_FRAME_PAYLOAD
from repro.hw.net.port import NetworkPort
from repro.sim import Event, Simulator

#: InfiniBand/RoCE transport headers.
RDMA_HEADER = 58
#: NIC-internal processing per operation (no CPU involved).
NIC_PROCESSING = 600e-9


class MemoryRegion:
    """A registered, remotely-accessible buffer with an rkey."""

    def __init__(self, rkey: int, buffer: bytearray):
        self.rkey = rkey
        self.buffer = buffer

    def read(self, offset: int, size: int) -> bytes:
        if offset < 0 or offset + size > len(self.buffer):
            raise CapacityError("RDMA read out of region bounds")
        return bytes(self.buffer[offset : offset + size])

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > len(self.buffer):
            raise CapacityError("RDMA write out of region bounds")
        self.buffer[offset : offset + len(data)] = data


@dataclass
class _RdmaRequest:
    op_id: int
    kind: str  # "read" | "write"
    rkey: int
    offset: int
    size: int
    data: Optional[bytes] = None


@dataclass
class _RdmaResponse:
    op_id: int
    ok: bool
    data: Optional[bytes] = None


class RdmaNic:
    """An RDMA-capable NIC bound to one port; serves one-sided ops.
    Frames arrive as port callbacks."""

    def __init__(self, sim: Simulator, port: NetworkPort):
        self.sim = sim
        self.port = port
        self.regions: Dict[int, MemoryRegion] = {}
        self._completions: Dict[int, Event] = {}
        # Per-NIC ids: responses come back to the issuing NIC, so only
        # its operations need distinct ones.
        self._op_ids = itertools.count()
        self._next_rkey = itertools.count(1)
        port.listen(self._on_frame)

    @property
    def address(self) -> str:
        return self.port.address

    def register_region(self, buffer: bytearray) -> MemoryRegion:
        region = MemoryRegion(next(self._next_rkey), buffer)
        self.regions[region.rkey] = region
        return region

    # -- one-sided verbs -------------------------------------------------------
    def read(self, peer: str, rkey: int, offset: int, size: int):
        """Process: RDMA READ; returns the remote bytes."""
        response = yield from self._issue(
            peer, _RdmaRequest(next(self._op_ids), "read", rkey, offset, size),
            request_size=RDMA_HEADER,
        )
        if not response.ok:
            raise ProtocolError("remote RDMA read failed")
        return response.data

    def write(self, peer: str, rkey: int, offset: int, data: bytes):
        """Process: RDMA WRITE of ``data`` into the remote region."""
        response = yield from self._issue(
            peer,
            _RdmaRequest(next(self._op_ids), "write", rkey, offset, len(data),
                         bytes(data)),
            request_size=RDMA_HEADER + len(data),
        )
        if not response.ok:
            raise ProtocolError("remote RDMA write failed")

    def _issue(self, peer: str, request: _RdmaRequest, request_size: int):
        done = Event(self.sim)
        self._completions[request.op_id] = done
        # Large transfers fragment at the link layer; model as chunked frames.
        remaining = request_size
        while remaining > 0:
            chunk = min(MAX_FRAME_PAYLOAD, remaining)
            remaining -= chunk
            payload = request if remaining == 0 else None
            yield self.port.send(Frame(self.address, peer, payload, chunk))
        response = yield done
        return response

    # -- remote side -----------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        message = frame.payload
        if isinstance(message, _RdmaRequest):
            self.sim.spawn(self._serve(frame.src, message))
        elif isinstance(message, _RdmaResponse):
            waiter = self._completions.pop(message.op_id, None)
            if waiter is not None:
                waiter.succeed(message)

    def _serve(self, peer: str, request: _RdmaRequest):
        yield self.sim.timeout(NIC_PROCESSING)
        region = self.regions.get(request.rkey)
        if region is None:
            response = _RdmaResponse(request.op_id, ok=False)
            size = RDMA_HEADER
        elif request.kind == "read":
            try:
                data = region.read(request.offset, request.size)
                response = _RdmaResponse(request.op_id, ok=True, data=data)
                size = RDMA_HEADER + request.size
            except CapacityError:
                response = _RdmaResponse(request.op_id, ok=False)
                size = RDMA_HEADER
        else:
            try:
                region.write(request.offset, request.data or b"")
                response = _RdmaResponse(request.op_id, ok=True)
                size = RDMA_HEADER
            except CapacityError:
                response = _RdmaResponse(request.op_id, ok=False)
                size = RDMA_HEADER
        remaining = size
        while remaining > 0:
            chunk = min(MAX_FRAME_PAYLOAD, remaining)
            remaining -= chunk
            payload = response if remaining == 0 else None
            yield self.port.send(Frame(self.address, peer, payload, chunk))
