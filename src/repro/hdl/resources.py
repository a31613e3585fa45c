"""Area and clock-frequency estimation for scheduled pipelines.

Per-operation costs are calibrated to published UltraScale+ synthesis
results for 64-bit datapaths (an adder ~64 LUTs + carry, a multiplier maps
to DSP slices, barrel shifters ~200 LUTs, memory ops consume BRAM ports).
Absolute numbers matter less than the *relative* shape: fusion saves pipeline
registers, wide stages cost area, deep logic lowers f_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ebpf.isa import Instruction, Opcode
from repro.hw.fpga.resources import FabricResources
from repro.hdl.schedule import PipelineSchedule

#: LUTs per 64-bit operation.
_LUT_COST: Dict[Opcode, int] = {
    Opcode.ADD: 64,
    Opcode.SUB: 64,
    Opcode.MUL: 16,  # mostly DSPs
    Opcode.DIV: 1200,  # iterative divider
    Opcode.MOD: 1200,
    Opcode.OR: 32,
    Opcode.AND: 32,
    Opcode.XOR: 32,
    Opcode.LSH: 210,
    Opcode.RSH: 210,
    Opcode.ARSH: 220,
    Opcode.NEG: 64,
    Opcode.MOV: 0,  # wires
    Opcode.LDDW: 0,  # constant
    Opcode.JA: 4,
    Opcode.CALL: 300,  # helper interface FSM
    Opcode.EXIT: 8,
}
_COND_JUMP_LUTS = 70  # 64-bit comparator + mux
_MEM_OP_LUTS = 120  # address calc + port interface
_DSP_OPS = {Opcode.MUL: 7}  # 64x64 multiply needs several DSP48s

#: Flip-flops per pipeline register (one live 64-bit value).
_FFS_PER_STAGE_REG = 64

#: Achievable clock by deepest combinational stage (ops chained by fusion
#: deepen logic; wide stages add routing pressure).
_BASE_FMAX = 450e6
_FMAX_PENALTY_PER_CHAINED_OP = 0.12
_FMAX_PENALTY_PER_EXTRA_WIDTH = 0.015


@dataclass(frozen=True)
class AreaEstimate:
    """Estimated fabric cost and clock of one compiled pipeline."""

    resources: FabricResources
    fmax_hz: float
    pipeline_depth: int
    initiation_interval: int

    @property
    def cycle_time(self) -> float:
        return 1.0 / self.fmax_hz

    @property
    def fixed_latency(self) -> float:
        """Input-to-output latency: depth cycles, no jitter."""
        return self.pipeline_depth * self.cycle_time


def _insn_luts(insn: Instruction) -> int:
    if insn.is_cond_jump:
        return _COND_JUMP_LUTS
    if insn.is_load or insn.is_store:
        return _MEM_OP_LUTS
    return _LUT_COST.get(insn.opcode, 64)


def estimate_area(schedule: PipelineSchedule) -> FabricResources:
    luts = 0
    dsps = 0
    brams = 0
    ffs = 0
    for stage in schedule.stages:
        live_values = max(1, len(stage))
        ffs += live_values * _FFS_PER_STAGE_REG
        for op in stage:
            for insn in op.instructions:
                luts += _insn_luts(insn)
                dsps += _DSP_OPS.get(insn.opcode, 0)
                if insn.is_load or insn.is_store:
                    brams += 1
    return FabricResources(luts=luts, ffs=ffs, brams=brams, dsps=dsps)


def estimate_fmax(schedule: PipelineSchedule) -> float:
    worst_chain = 1
    for stage in schedule.stages:
        for op in stage:
            worst_chain = max(worst_chain, len(op.instructions))
    width_penalty = max(0, schedule.width - 4) * _FMAX_PENALTY_PER_EXTRA_WIDTH
    chain_penalty = (worst_chain - 1) * _FMAX_PENALTY_PER_CHAINED_OP
    return _BASE_FMAX / (1.0 + chain_penalty + width_penalty)


def estimate(schedule: PipelineSchedule) -> AreaEstimate:
    return AreaEstimate(
        resources=estimate_area(schedule),
        fmax_hz=estimate_fmax(schedule),
        pipeline_depth=schedule.depth,
        initiation_interval=schedule.initiation_interval,
    )
