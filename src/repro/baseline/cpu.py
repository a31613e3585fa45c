"""A cost-model CPU: instruction timing with scheduling interference.

The paper's predictability claim (§2): an FPGA pipeline "runs a certain
clock frequency without any outside interference", while CPU execution
shares caches, branch predictors, and run queues with everything else. The
CPU model therefore has two properties the FPGA model lacks: per-run timing
*jitter* and occasional *preemption spikes*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.ebpf.vm import BpfVm
from repro.sim import Simulator


@dataclass(frozen=True)
class CpuCosts:
    """Timing parameters of a contemporary server core."""

    clock_hz: float = 3.0e9
    instructions_per_cycle: float = 2.0
    #: multiplicative jitter from cache/TLB/SMT interference
    jitter_fraction: float = 0.15
    #: probability one execution eats a scheduler preemption
    preemption_probability: float = 0.02
    preemption_latency: float = 20e-6
    memcpy_bandwidth: float = 12e9  # bytes/s, one core

    def memcpy_time(self, size: int) -> float:
        return size / self.memcpy_bandwidth


#: Interpreter overhead vs native: ~25 host instructions per eBPF insn.
INTERPRETER_EXPANSION = 25.0


class CpuModel:
    """Executes eBPF programs in software with interference effects."""

    def __init__(
        self,
        sim: Simulator,
        costs: CpuCosts = CpuCosts(),
        rng: Optional[random.Random] = None,
    ):
        self.costs = costs
        self.rng = rng if rng is not None else random.Random(42)
        #: Native instructions per second.
        self._instruction_rate = costs.clock_hz * costs.instructions_per_cycle

    def jittered(self, time: float) -> float:
        """*time* stretched by cache/TLB/SMT interference: the one jitter
        rule, ``time * (1.0 + f * random())`` from one draw (``1.0 + f *
        random()`` is ``1.0 + uniform(0, f)``, bit for bit)."""
        return time * (1.0 + self.costs.jitter_fraction * self.rng.random())

    def execution_time(self, instructions_executed: int) -> float:
        """Wall time for one program run, with jitter and preemption."""
        costs = self.costs
        time = self.jittered(int(instructions_executed * INTERPRETER_EXPANSION)
                             / self._instruction_rate)
        if self.rng.random() < costs.preemption_probability:
            time += costs.preemption_latency
        return time

    def run(self, vm: BpfVm, context: bytes, when: float):
        """Run a program on the CPU from the instant *when*: its result,
        and the instant its jittered execution ends."""
        result = vm.run(context)
        return result, when + self.execution_time(result.instructions_executed)
