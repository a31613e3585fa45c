"""Control-flow and dataflow analysis over eBPF programs.

Parallelism extraction (paper §2.2: "a set of open-source compilers for
parallelism extraction") starts here: basic blocks give the control
skeleton; the per-block dataflow graph exposes which instructions have no
mutual dependencies and can issue in the same hardware stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.ebpf.isa import Instruction, Opcode, Program, leaders


@dataclass
class BasicBlock:
    """A straight-line run of instructions with one entry and one exit."""

    index: int
    start_slot: int
    instructions: List[Instruction] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)

    @property
    def slot_span(self) -> int:
        return sum(insn.slots for insn in self.instructions)


def build_cfg(program: Program) -> List[BasicBlock]:
    """Split into basic blocks and wire successor edges."""
    leader_slots = leaders(program)
    slot_to_block: Dict[int, int] = {}
    blocks: List[BasicBlock] = []
    for index, start in enumerate(leader_slots):
        blocks.append(BasicBlock(index=index, start_slot=start))
        slot_to_block[start] = index

    # Fill instructions.
    slot = 0
    current: Optional[BasicBlock] = None
    for insn in program:
        if slot in slot_to_block:
            current = blocks[slot_to_block[slot]]
        assert current is not None
        current.instructions.append(insn)
        slot += insn.slots

    # Wire successors.
    for block in blocks:
        if not block.instructions:
            continue
        last = block.instructions[-1]
        end_slot = block.start_slot + block.slot_span
        if last.opcode is Opcode.EXIT:
            continue
        if last.opcode is Opcode.JA:
            target = (end_slot - 1) + 1 + last.offset
            block.successors.append(slot_to_block[target])
            continue
        if last.is_cond_jump:
            target = (end_slot - 1) + 1 + last.offset
            block.successors.append(slot_to_block[target])
        if end_slot in slot_to_block:
            block.successors.append(slot_to_block[end_slot])
    return blocks


@dataclass
class DataflowGraph:
    """RAW/WAR/WAW dependencies between the instructions of one block."""

    instructions: List[Instruction]
    #: edges[i] = set of instruction indices that i depends on
    edges: Dict[int, Set[int]]


def _reads(insn: Instruction) -> Set[int]:
    regs: Set[int] = set()
    op = insn.opcode
    if op is Opcode.CALL:
        return {1, 2, 3, 4, 5}
    if op is Opcode.EXIT:
        return {0}
    if op is Opcode.LDDW:
        return set()
    if insn.is_alu:
        if op is not Opcode.MOV and op is not Opcode.NEG:
            regs.add(insn.dst)
        if op is Opcode.NEG:
            regs.add(insn.dst)
        if insn.uses_reg_src:
            regs.add(insn.src)
        return regs
    if insn.is_load:
        return {insn.src}
    if insn.is_store:
        regs.add(insn.dst)
        if op.value.startswith("stx"):
            regs.add(insn.src)
        return regs
    if insn.is_cond_jump:
        regs.add(insn.dst)
        if insn.uses_reg_src:
            regs.add(insn.src)
        return regs
    return regs


def _writes(insn: Instruction) -> Set[int]:
    op = insn.opcode
    if op is Opcode.CALL:
        return {0, 1, 2, 3, 4, 5}
    if insn.is_alu or insn.is_load or op is Opcode.LDDW:
        return {insn.dst}
    return set()


def _touches_memory(insn: Instruction) -> bool:
    return insn.is_load or insn.is_store or insn.opcode is Opcode.CALL


def build_dfg(block: BasicBlock) -> DataflowGraph:
    """Dependency edges within one block (memory ops stay ordered)."""
    instructions = block.instructions
    edges: Dict[int, Set[int]] = {i: set() for i in range(len(instructions))}
    last_writer: Dict[int, int] = {}
    last_readers: Dict[int, List[int]] = {}
    last_memory: Optional[int] = None
    for i, insn in enumerate(instructions):
        reads = _reads(insn)
        writes = _writes(insn)
        for reg in reads:  # RAW
            if reg in last_writer:
                edges[i].add(last_writer[reg])
        for reg in writes:  # WAW and WAR
            if reg in last_writer:
                edges[i].add(last_writer[reg])
            for reader in last_readers.get(reg, ()):
                if reader != i:
                    edges[i].add(reader)
        if _touches_memory(insn):
            if last_memory is not None:
                edges[i].add(last_memory)
            last_memory = i
        for reg in reads:
            last_readers.setdefault(reg, []).append(i)
        for reg in writes:
            last_writer[reg] = i
            last_readers[reg] = []
    return DataflowGraph(instructions=instructions, edges=edges)
