"""Operating-system path costs: interrupts, syscalls, copies.

Published magnitudes for a tuned Linux server; these are the "CPU remains
in the critical path to manage data flows (data copying, I/O buffers
management)" overheads of paper §1.

An operation's latencies run back to back on one core, so each operation
is one sleep (``Simulator.timeout_at``) to the instant the chain ends:
the latencies are added onto the clock one at a time, in order, never
summed first — the same float sleeping them one by one reached.
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
    """Charges the kernel's share of each datapath operation: counters
    up front, then one sleep (one engine entry) per operation."""

    def __init__(self, sim: Simulator, cpu: CpuModel, costs: OsCosts = OsCosts()):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.syscalls = 0
        self.interrupts = 0
        self.bytes_copied = 0

    def _after(self, *latencies: float):
        """The event at the end of back-to-back *latencies*: each added
        onto the clock in turn, as sleeping them one by one would."""
        when = self.sim.now
        for latency in latencies:
            when += latency
        return self.sim.timeout_at(when)

    def receive_packet(self, size: int):
        """Process: NIC interrupt + socket read syscall + copy to user."""
        self.interrupts += 1
        self.syscalls += 1
        self.bytes_copied += size
        yield self._after(self.costs.interrupt_latency,
                          self.costs.syscall_latency,
                          self.cpu.costs.memcpy_time(size))

    def send_packet(self, size: int):
        """Process: send syscall + copy to kernel."""
        self.syscalls += 1
        self.bytes_copied += size
        yield self._after(self.costs.syscall_latency,
                          self.cpu.costs.memcpy_time(size))

    def write_storage(self, size: int):
        """Process: write syscall + block layer + copy to page cache."""
        self.syscalls += 1
        self.bytes_copied += size
        yield self._after(self.costs.syscall_latency,
                          self.costs.block_layer_latency,
                          self.cpu.costs.memcpy_time(size))

    def read_storage(self, size: int):
        """Process: read syscall + block layer + copy from page cache."""
        self.syscalls += 1
        self.bytes_copied += size
        yield self._after(self.costs.syscall_latency,
                          self.costs.block_layer_latency,
                          self.cpu.costs.memcpy_time(size))
