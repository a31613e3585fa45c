"""Weighted AXI-stream arbitration for tenant isolation (paper §4(4)).

"Can or should the micro-architectural resources of Hyperion be managed
explicitly with tenants to ensure sufficient isolation?" — here the shared
microarchitectural resource is the AXIS interconnect's bandwidth. The
arbiter grants transfer slots by explicit per-tenant weights (weighted
round robin), so a tenant's share is enforced by construction; a bursty
neighbour cannot push another tenant below its reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import ConfigurationError
from repro.sim import Event, Simulator, Store

#: Bytes a weight-1 tenant may send per round-robin round.
QUANTUM_BYTES = 4096
#: The AXIS interconnect's bandwidth, bytes/s.
AXIS_BANDWIDTH = 10e9


@dataclass
class _PendingTransfer:
    tenant: str
    size_bytes: int
    done: Event


class WeightedAxisArbiter:
    """Shares one bus of :data:`AXIS_BANDWIDTH` bytes/s among weighted
    tenants."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.bandwidth = AXIS_BANDWIDTH
        self._weights: Dict[str, int] = {}
        self._queues: Dict[str, List[_PendingTransfer]] = {}
        self._deficits: Dict[str, int] = {}
        self._wakeup: Store = Store(sim)
        self.bytes_served: Dict[str, int] = {}
        sim.spawn(self._arbiter_loop())

    def register_tenant(self, tenant: str, weight: int = 1) -> None:
        if weight < 1:
            raise ConfigurationError("weight must be >= 1")
        if tenant in self._weights:
            raise ConfigurationError(f"tenant {tenant} already registered")
        self._weights[tenant] = weight
        self._queues[tenant] = []
        self._deficits[tenant] = 0
        self.bytes_served[tenant] = 0

    def transfer(self, tenant: str, size_bytes: int):
        """Process: move ``size_bytes`` under this tenant's share."""
        if tenant not in self._weights:
            raise ConfigurationError(f"unknown tenant {tenant}")
        pending = _PendingTransfer(tenant, size_bytes, Event(self.sim))
        self._queues[tenant].append(pending)
        yield self._wakeup.put(None)
        yield pending.done

    def _backlogged(self) -> List[str]:
        return [t for t, queue in self._queues.items() if queue]

    def _arbiter_loop(self):
        """Deficit-weighted round robin over backlogged tenants."""
        while True:
            yield self._wakeup.get()
            while self._backlogged():
                for tenant in list(self._weights):
                    queue = self._queues[tenant]
                    if not queue:
                        self._deficits[tenant] = 0
                        continue
                    self._deficits[tenant] += (
                        self._weights[tenant] * QUANTUM_BYTES
                    )
                    while queue and self._deficits[tenant] > 0:
                        head = queue[0]
                        chunk = min(head.size_bytes, self._deficits[tenant])
                        yield self.sim.timeout(chunk / self.bandwidth)
                        head.size_bytes -= chunk
                        self._deficits[tenant] -= chunk
                        self.bytes_served[tenant] += chunk
                        if head.size_bytes <= 0:
                            queue.pop(0)
                            head.done.succeed(None)
            # Drain stale wakeups so the loop blocks until new work.
            while len(self._wakeup) > 0:
                yield self._wakeup.get()

    def share_of(self, tenant: str) -> float:
        total = sum(self.bytes_served.values())
        return self.bytes_served[tenant] / total if total else 0.0
