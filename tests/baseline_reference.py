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
float for float. So are the formulas they charged with, before the
models computed their rates once: :func:`execution_time` (the removed
``CpuCosts.instruction_time`` and a ``rng.uniform`` jitter draw) and
:func:`memcpy_time`. Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.baseline.cpu import INTERPRETER_EXPANSION
from repro.baseline.datapath import CpuCentricDatapath
from repro.common.errors import ProtocolError
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode


def memcpy_time(costs, size: int) -> float:
    """``CpuCosts.memcpy_time``: one core copying *size* bytes."""
    return size / costs.memcpy_bandwidth


def execution_time(costs, rng, instructions_executed: int) -> float:
    """``CpuModel.execution_time`` as it was: the instruction time, a
    ``uniform`` jitter draw, then the preemption draw."""
    instructions = int(instructions_executed * INTERPRETER_EXPANSION)
    base = instructions / (costs.clock_hz * costs.instructions_per_cycle)
    jitter = 1.0 + rng.uniform(0, costs.jitter_fraction)
    time = base * jitter
    if rng.random() < costs.preemption_probability:
        time += costs.preemption_latency
    return time


def _after(sim, *latencies: float):
    """The event at the end of back-to-back *latencies*: each added
    onto the clock in turn, as sleeping them one by one would."""
    when = sim.now
    for latency in latencies:
        when += latency
    return sim.timeout_at(when)


def receive_packet(sim, os_model, cpu, size: int):
    """Process: NIC interrupt + socket read syscall + copy to user."""
    os_model.interrupts += 1
    os_model.syscalls += 1
    os_model.bytes_copied += size
    yield _after(sim, os_model.costs.interrupt_latency,
                 os_model.costs.syscall_latency,
                 memcpy_time(cpu.costs, size))


def write_storage(sim, os_model, cpu, size: int):
    """Process: write syscall + block layer + copy to page cache."""
    os_model.syscalls += 1
    os_model.bytes_copied += size
    yield _after(sim, os_model.costs.syscall_latency,
                 os_model.costs.block_layer_latency,
                 memcpy_time(cpu.costs, size))


def execute_ebpf(sim, cpu, vm, context: bytes = b""):
    """Process: run a program on the CPU, charging simulated time."""
    result = vm.run(context)
    yield sim.timeout(execution_time(cpu.costs, cpu.rng,
                                     result.instructions_executed))
    return result


class ReferenceDatapath(CpuCentricDatapath):
    """Same constructor and verdicts as :class:`CpuCentricDatapath`."""

    def process_packet(self, vm, packet: bytes):
        # NIC -> kernel -> user
        yield from receive_packet(self.sim, self.os, self.cpu, len(packet))
        # software program execution (jittery)
        result = yield from execute_ebpf(self.sim, self.cpu, vm, packet)
        if self.qp is not None:
            # user -> kernel -> block layer -> page cache
            yield from write_storage(self.sim, self.os, self.cpu, len(packet))
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
