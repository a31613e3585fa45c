"""The OS-shell: Hyperion's network control plane (paper §2).

"We are in the process of developing an OS-shell and control path over the
network that can program the FPGA without a CPU, leveraging Partial Dynamic
Reconfiguration through the ICAP." The shell accepts *signed, encrypted*
bitstreams over a control port, verifies them, and drives the ICAP — the
privileged configuration kernel of §2.2.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ConfigurationError
from repro.hw.fpga.bitstream import BitstreamAuthority, SignedBitstream
from repro.dpu.hyperion import HyperionDpu
from repro.transport.rpc import RpcServer


class OsShell:
    """Control-plane RPC service bound to a DPU."""

    def __init__(
        self,
        dpu: HyperionDpu,
        server: RpcServer,
        authority: BitstreamAuthority,
    ):
        self.dpu = dpu
        self.authority = authority
        self.loads_accepted = 0
        self.loads_rejected = 0
        server.register("shell.load", self._load)
        server.register("shell.unload", self._unload)
        server.register("shell.slots", self._slots)
        server.register("shell.persist", self._persist)
        server.register("shell.inventory", self._inventory)

    # -- handlers ------------------------------------------------------------
    def _load(self, signed: SignedBitstream, tenant: str):
        """Verify, pick a slot, partially reconfigure; returns slot index."""
        self.dpu.require_booted()
        if not isinstance(signed, SignedBitstream):
            self.loads_rejected += 1
            raise ConfigurationError("expected a signed bitstream")
        if not self.authority.verify(signed):
            self.loads_rejected += 1
            raise ConfigurationError("bitstream signature rejected")
        if not signed.encrypted:
            self.loads_rejected += 1
            raise ConfigurationError("bitstream must be encrypted in transit")
        slot = self.dpu.fabric.free_slot()
        if slot is None:
            self.loads_rejected += 1
            raise ConfigurationError("no free slots")
        if not slot.can_host(signed.bitstream):
            self.loads_rejected += 1
            raise ConfigurationError("bitstream exceeds the slot budget")
        yield from self.dpu.icap.load(slot, signed.bitstream, tenant=tenant)
        self.loads_accepted += 1
        return slot.index

    def _unload(self, slot_index: int, tenant: str):
        self.dpu.require_booted()
        slot = self.dpu.fabric.slots[slot_index]
        if not slot.occupied:
            raise ConfigurationError(f"slot {slot_index} is empty")
        if slot.tenant != tenant:
            raise ConfigurationError(f"slot {slot_index} belongs to another tenant")
        slot.unload()
        return True

    def _slots(self) -> List[Dict]:
        return [
            {
                "slot": slot.index,
                "occupied": slot.occupied,
                "bitstream": slot.loaded.name if slot.occupied else None,
                "tenant": slot.tenant,
            }
            for slot in self.dpu.fabric.slots
        ]

    def _persist(self):
        """Persist the segment translation table (paper §2.1)."""
        self.dpu.require_booted()
        written = yield from self.dpu.store.timed_persist_table()
        return written

    def _inventory(self) -> Dict:
        return self.dpu.inventory()
