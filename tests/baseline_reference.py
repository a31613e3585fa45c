"""Test-only reference datapath: the oracle for ``CpuCentricDatapath``.

This is the ``process_packet`` the CPU-centric datapath had while each
host operation was a wait of its own: the receive (interrupt, syscall and
copy folded onto one ``timeout_at``), the program on the CPU (run when the
receive completed, then ``timeout(execution time)``) and the page-cache
write (syscall, block layer and copy onto one more ``timeout_at``) —
three engine entries per packet before any flush. The generator charges
it called (``OsModel.receive_packet`` / ``write_storage``,
``CpuModel.execute_ebpf``) are kept verbatim as functions here, so the
single folded sleep that replaced the chain can be compared against it
float for float. Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.baseline.datapath import CpuCentricDatapath
from repro.common.errors import ProtocolError
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode


def _after(os_model, *latencies: float):
    """The event at the end of back-to-back *latencies*: each added
    onto the clock in turn, as sleeping them one by one would."""
    when = os_model.sim.now
    for latency in latencies:
        when += latency
    return os_model.sim.timeout_at(when)


def receive_packet(os_model, size: int):
    """Process: NIC interrupt + socket read syscall + copy to user."""
    os_model.interrupts += 1
    os_model.syscalls += 1
    os_model.bytes_copied += size
    yield _after(os_model, os_model.costs.interrupt_latency,
                 os_model.costs.syscall_latency,
                 os_model.cpu.costs.memcpy_time(size))


def write_storage(os_model, size: int):
    """Process: write syscall + block layer + copy to page cache."""
    os_model.syscalls += 1
    os_model.bytes_copied += size
    yield _after(os_model, os_model.costs.syscall_latency,
                 os_model.costs.block_layer_latency,
                 os_model.cpu.costs.memcpy_time(size))


def execute_ebpf(cpu, vm, context: bytes = b""):
    """Process: run a program on the CPU, charging simulated time."""
    result = vm.run(context)
    yield cpu.sim.timeout(cpu.execution_time(result.instructions_executed))
    cpu.executions += 1
    return result


class ReferenceDatapath(CpuCentricDatapath):
    """Same constructor and verdicts as :class:`CpuCentricDatapath`."""

    def process_packet(self, vm, packet: bytes, persist: bool):
        # NIC -> kernel -> user
        yield from receive_packet(self.os, len(packet))
        # software program execution (jittery)
        result = yield from execute_ebpf(self.cpu, vm, packet)
        if persist and self.qp is not None:
            # user -> kernel -> block layer -> page cache
            yield from write_storage(self.os, len(packet))
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
        self.packets_processed += 1
        return result.return_value
