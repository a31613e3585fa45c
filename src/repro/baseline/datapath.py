"""The CPU-mediated datapath: NIC -> kernel -> CPU -> kernel -> SSD.

Each packet handled by a conventional server costs an interrupt, syscalls,
two copies, software program execution (with jitter), and a block-layer
traversal before reaching flash — every stage the Hyperion inline path
deletes.
"""

from __future__ import annotations

from typing import Optional

from repro.baseline.cpu import CpuModel
from repro.baseline.os_model import OsModel
from repro.common.errors import ProtocolError
from repro.ebpf.vm import BpfVm
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode
from repro.hw.nvme.controller import NvmeController
from repro.sim import Simulator


class CpuCentricDatapath:
    """Packet-processing-with-persistence on a conventional server."""

    def __init__(
        self,
        sim: Simulator,
        cpu: CpuModel,
        os_model: OsModel,
        ssd: Optional[NvmeController] = None,
    ):
        self.sim = sim
        self.cpu = cpu
        self.os = os_model
        self.qp = None
        if ssd is not None:
            self.qp = ssd.create_queue_pair()
        self._log_lba = 0
        self._page_cache = bytearray()

    def process_packet(self, vm: BpfVm, packet: bytes):
        """Process: one packet through the full CPU-centric path.

        The host costs run back to back on one core, so they are one
        sleep: the program runs, and draws its jitter, when the packet
        arrives — concurrent callers run their programs in arrival order.
        With an SSD, every packet is persisted through the page cache: it
        pays the write syscall + copy, and full 4 KiB pages flush to the
        device.

        Returns the program's verdict (r0).
        """
        # NIC -> kernel -> user -> software execution (jittery) ->
        # kernel -> block layer -> page cache
        when = self.os.receive_packet(self.sim.now, len(packet))
        result, when = self.cpu.run(vm, packet, when)
        persist = self.qp is not None
        if persist:
            when = self.os.write_storage(when, len(packet))
        yield self.sim.timeout_at(when)
        if persist:
            self._page_cache.extend(packet)
            if len(self._page_cache) >= 4096:
                block = bytes(self._page_cache[:4096])
                del self._page_cache[:4096]
                # Reserve the LBA before submitting: a caller whose flush
                # overlaps this one must get the next block, not this one.
                lba = self._log_lba
                self._log_lba += 1
                completion = yield self.qp.submit(
                    NvmeCommand(NvmeOpcode.WRITE, lba=lba, data=block)
                )
                if not completion.ok:
                    raise ProtocolError(
                        f"packet log write failed at LBA {lba}: "
                        f"{completion.status.name}"
                    )
        return result.return_value
