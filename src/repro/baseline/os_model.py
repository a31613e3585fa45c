"""Operating-system path costs: interrupts, syscalls, copies.

Published magnitudes for a tuned Linux server; these are the "CPU remains
in the critical path to manage data flows (data copying, I/O buffers
management)" overheads of paper §1.

Each charge is arithmetic on an instant, not a wait: it bumps the
counters, then adds its latencies onto *when* one at a time, in order,
never summed first — the float a chain of sleeps reached. A caller folds
its whole chain of host costs so and sleeps once (``sim.timeout_at``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baseline.cpu import CpuModel
from repro.sim import Simulator


@dataclass(frozen=True)
class OsCosts:
    """Per-operation kernel costs (interrupt, syscall, block layer)."""

    interrupt_latency: float = 4e-6  # NIC IRQ + softirq
    syscall_latency: float = 1.2e-6  # entry/exit + spectre mitigations
    block_layer_latency: float = 3e-6  # bio submit + completion
    context_switch_latency: float = 3e-6
    page_fault_latency: float = 5e-6


class OsModel:
    """Charges the kernel's share of each datapath operation: counters,
    then the instant the operation started at *when* ends."""

    def __init__(self, sim: Simulator, cpu: CpuModel):
        self.cpu = cpu
        self.costs = OsCosts()
        self.syscalls = 0
        self.interrupts = 0
        self.bytes_copied = 0

    def receive_packet(self, when: float, size: int) -> float:
        """NIC interrupt + socket read syscall + copy to user."""
        self.interrupts += 1
        self.syscalls += 1
        self.bytes_copied += size
        when += self.costs.interrupt_latency
        when += self.costs.syscall_latency
        return when + self.cpu.costs.memcpy_time(size)

    def write_storage(self, when: float, size: int) -> float:
        """Write syscall + block layer + copy to page cache."""
        self.syscalls += 1
        self.bytes_copied += size
        when += self.costs.syscall_latency
        when += self.costs.block_layer_latency
        return when + self.cpu.costs.memcpy_time(size)

    def read_storage(self, when: float, size: int) -> float:
        """Read syscall + block layer + copy from page cache."""
        self.syscalls += 1
        self.bytes_copied += size
        when += self.costs.syscall_latency
        when += self.costs.block_layer_latency
        return when + self.cpu.costs.memcpy_time(size)
