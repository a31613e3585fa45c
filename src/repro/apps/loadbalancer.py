"""A Tiara-style stateful L4 load balancer on the DPU (paper §2.4).

"load-balancers ... require large temporary data storage (e.g., Tiara
offloads load-balancing state from FPGAs to x86 servers)" — Hyperion keeps
the hot connection table in FPGA DRAM and overflows cold entries to its own
attached SSDs instead of to another server.

Two policies are compared (the E4 ablation):

* ``overflow`` — evicted entries move to an NVMe-resident segment; later
  packets of those flows pay a flash read but keep their backend;
* ``drop`` — evicted entries are lost (the DRAM-only baseline); returning
  flows get re-hashed, and flows whose backend assignment changed count as
  *broken connections*.
"""

from __future__ import annotations

import random
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List

from repro.dpu.hyperion import HyperionDpu
from repro.memory.segments import PlacementHint
from repro.sim import Simulator

_ENTRY = struct.Struct("<QI")  # flow id, backend


@dataclass(frozen=True)
class LbPacket:
    """One packet of the load-balancer trace, keyed by flow id."""

    flow_id: int
    size: int = 1500


#: A generated trace's hot set: this fraction of its flows...
HOT_FRACTION = 0.1
#: ...gets this fraction of its packets.
HOT_PROBABILITY = 0.8

#: Backends a flow is balanced across.
BACKENDS = 8


def generate_connections(
    packet_count: int,
    flow_count: int,
    seed: int = 11,
) -> List[LbPacket]:
    """A skewed trace: a small hot set gets most packets (elephant flows)."""
    rng = random.Random(seed)
    hot_flows = max(1, int(flow_count * HOT_FRACTION))
    packets = []
    for _ in range(packet_count):
        if rng.random() < HOT_PROBABILITY:
            flow = rng.randrange(hot_flows)
        else:
            flow = hot_flows + rng.randrange(max(1, flow_count - hot_flows))
        packets.append(LbPacket(flow_id=flow))
    return packets


class LoadBalancer:
    """Per-packet backend selection with a bounded DRAM table."""

    def __init__(
        self,
        sim: Simulator,
        dpu: HyperionDpu,
        dram_table_entries: int = 128,
        policy: str = "overflow",
    ):
        if policy not in ("overflow", "drop"):
            raise ValueError(f"unknown policy {policy!r}")
        dpu.require_booted()
        self.sim = sim
        self.dpu = dpu
        self.dram_table_entries = dram_table_entries
        self.policy = policy
        #: LRU hot table: flow -> backend (conceptually in FPGA DRAM)
        self._hot: "OrderedDict[int, int]" = OrderedDict()
        #: cold entries: flow -> (segment offset); data lives on NVMe
        self._cold_index: Dict[int, int] = {}
        self._cold_segment = dpu.store.allocate(
            1 << 20, hint=PlacementHint.COLD
        )
        self._cold_cursor = 0
        self._rng = random.Random(13)
        # statistics
        self.packets = 0
        self.hot_hits = 0
        self.cold_hits = 0
        self.inserts = 0
        self.broken_connections = 0
        self._ever_assigned: Dict[int, int] = {}

    def _assign_backend(self, flow_id: int) -> int:
        # Load-aware assignment: the backend chosen depends on conditions at
        # arrival time (modeled as a random draw), so a flow whose state is
        # dropped and re-inserted may land on a *different* backend — the
        # broken connection Tiara's state offload exists to prevent.
        return self._rng.randrange(BACKENDS)

    def _evict_one(self):
        victim_flow, victim_backend = self._hot.popitem(last=False)
        if self.policy == "overflow":
            record = _ENTRY.pack(victim_flow, victim_backend)
            offset = self._cold_cursor
            self._cold_cursor += _ENTRY.size
            yield from self.dpu.store.timed_write(
                self._cold_segment.oid, record, offset=offset
            )
            self._cold_index[victim_flow] = offset
        # policy "drop": the state is simply gone.

    def _fetch_cold(self, flow_id: int):
        offset = self._cold_index.pop(flow_id)
        raw = yield from self.dpu.store.timed_read(
            self._cold_segment.oid, _ENTRY.size, offset=offset
        )
        __, backend = _ENTRY.unpack(raw)
        return backend

    def handle_packet(self, packet: LbPacket):
        """Process: route one packet; returns the chosen backend."""
        self.packets += 1
        flow = packet.flow_id
        # DRAM hit: one fast-path lookup.
        if flow in self._hot:
            self._hot.move_to_end(flow)
            self.hot_hits += 1
            yield self.sim.timeout(self.dpu.fabric.dram.access_latency)
            return self._hot[flow]
        # Cold hit: fetch from flash, promote back to DRAM.
        if self.policy == "overflow" and flow in self._cold_index:
            backend = yield from self._fetch_cold(flow)
            self.cold_hits += 1
        else:
            backend = self._assign_backend(flow)
            self.inserts += 1
            previous = self._ever_assigned.get(flow)
            if previous is not None and previous != backend:
                self.broken_connections += 1
        self._ever_assigned[flow] = backend
        self._hot[flow] = backend
        if len(self._hot) > self.dram_table_entries:
            yield from self._evict_one()
        return backend

    def state_bytes_on_flash(self) -> int:
        return len(self._cold_index) * _ENTRY.size
