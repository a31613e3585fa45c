"""Instruction fusion: merging dependent pairs into single macro-ops.

The eHDL compiler the paper cites turns eBPF/XDP programs into hardware by,
among other things, fusing adjacent instructions whose composition is still
a single combinational function (e.g. ``mov`` feeding an ``add``, a mask
feeding a shift, a compare feeding its branch). Fusion removes pipeline
stages and registers, which the E10 ablation quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.ebpf.isa import Instruction, Opcode, reads

#: ALU pairs that remain one LUT level when composed.
_FUSABLE_ALU = {
    Opcode.MOV,
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.LSH,
    Opcode.RSH,
}


@dataclass
class FusedOp:
    """One scheduled operation: a single instruction or a fused chain."""

    instructions: List[Instruction] = field(default_factory=list)

    @property
    def is_fused(self) -> bool:
        return len(self.instructions) > 1

    def describe(self) -> str:
        return "+".join(insn.opcode.value for insn in self.instructions)


def _can_fuse(first: Instruction, second: Instruction) -> bool:
    """Fuse ``first -> second`` when both are cheap combinational ALU ops
    and second reads first's result, or second is a branch on it."""
    if first.opcode not in _FUSABLE_ALU:
        return False
    if second.is_cond_jump:  # compare + branch
        return second.dst == first.dst
    return second.opcode in _FUSABLE_ALU and first.dst in reads(second)


def fuse_instructions(instructions: Sequence[Instruction],
                      enabled: bool = True) -> List[FusedOp]:
    """Greedy pairwise fusion over a straight-line instruction list."""
    if not enabled:
        return [FusedOp([insn]) for insn in instructions]
    fused: List[FusedOp] = []
    index = 0
    while index < len(instructions):
        current = instructions[index]
        if index + 1 < len(instructions) and _can_fuse(
            current, instructions[index + 1]
        ):
            fused.append(FusedOp([current, instructions[index + 1]]))
            index += 2
        else:
            fused.append(FusedOp([current]))
            index += 1
    return fused
