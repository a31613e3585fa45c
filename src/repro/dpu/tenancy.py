"""Slot scheduling for multi-tenant DPUs (paper §2.2, §4(4)).

Tenants arrive with compiled bitstreams; the scheduler grants free slots
immediately and otherwise queues until a tenant releases one (no
preemption: a loaded slot is never evicted). Every placement is a partial
reconfiguration through the (serialized) ICAP, which is what bounds how
fast the DPU can be re-multiplexed — experiment E7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import CapacityError
from repro.hw.fpga.bitstream import Bitstream
from repro.hw.fpga.fabric import Fabric, ReconfigurableSlot
from repro.hw.fpga.icap import Icap
from repro.sim import Simulator, Store


@dataclass
class TenantRequest:
    """A tenant's pending/granted slot request with wait accounting."""

    tenant: str
    bitstream: Bitstream
    arrived_at: float = 0.0
    granted_at: Optional[float] = None
    slot_index: Optional[int] = None

    @property
    def wait_time(self) -> float:
        if self.granted_at is None:
            raise CapacityError("request not granted yet")
        return self.granted_at - self.arrived_at


class SlotScheduler:
    """FIFO tenant queue over the fabric's reconfigurable slots."""

    def __init__(self, sim: Simulator, fabric: Fabric, icap: Icap):
        self.sim = sim
        self.fabric = fabric
        self.icap = icap
        self.granted: List[TenantRequest] = []
        self._queue: Store = Store(sim)
        self._released: Store = Store(sim)
        sim.spawn(self._scheduler_loop())

    def submit(self, tenant: str, bitstream: Bitstream) -> TenantRequest:
        request = TenantRequest(tenant, bitstream, arrived_at=self.sim.now)
        self.sim.spawn(self._enqueue(request))
        return request

    def _enqueue(self, request: TenantRequest):
        yield self._queue.put(request)

    def release(self, slot_index: int) -> None:
        """Tenant done: slot becomes reclaimable."""
        slot = self.fabric.slots[slot_index]
        self.sim.spawn(self._signal_release(slot))

    def _signal_release(self, slot: ReconfigurableSlot):
        if slot.occupied:
            slot.unload()
        yield self._released.put(slot)

    def _scheduler_loop(self):
        while True:
            request = yield self._queue.get()
            slot = self.fabric.free_slot()
            while slot is None:
                slot = yield self._released.get()
                if slot.occupied:  # raced with someone else
                    slot = None
            yield from self.icap.load(slot, request.bitstream, tenant=request.tenant)
            request.granted_at = self.sim.now
            request.slot_index = slot.index
            self.granted.append(request)

    def utilization(self) -> float:
        return self.fabric.utilization()
