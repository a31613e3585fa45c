"""Pre-scheduling eBPF optimization: constant propagation and dead code.

The paper builds on "Faster Software Packet Processing on FPGA NICs with
eBPF Program Warping" [35]: rewrite the program *before* lowering so fewer
operations reach the hardware at all. Two classical passes, applied per
basic block until fixpoint:

* **constant folding/propagation** — ALU ops whose operands are known
  become MOVs of the folded constant;
* **dead-code elimination** — ALU/MOV results never observed (overwritten
  or unread before the block ends, for registers dead at block exit) are
  deleted.

The passes are conservative across control flow: only values proven inside
one block are folded, and only registers not live out of a block are
eliminated — so the optimizer is semantics-preserving for every verifier-
accepted program (checked by the hypothesis equivalence suite).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ebpf.isa import (
    ALU_OPS,
    Instruction,
    Opcode,
    Program,
)
from repro.hdl.dataflow import BasicBlock, build_cfg, _reads, _writes

_U64 = (1 << 64) - 1

#: Fold + DCE passes before the optimizer stops short of a fixpoint.
MAX_ROUNDS = 8


def _fold(op: Opcode, dst: int, src: int) -> Optional[int]:
    """Evaluate one ALU op over known 64-bit constants."""
    if op is Opcode.ADD:
        return (dst + src) & _U64
    if op is Opcode.SUB:
        return (dst - src) & _U64
    if op is Opcode.MUL:
        return (dst * src) & _U64
    if op is Opcode.DIV:
        return (dst // src) & _U64 if src else 0
    if op is Opcode.MOD:
        return (dst % src) & _U64 if src else dst
    if op is Opcode.OR:
        return dst | src
    if op is Opcode.AND:
        return dst & src
    if op is Opcode.XOR:
        return dst ^ src
    if op is Opcode.LSH:
        return (dst << (src & 63)) & _U64
    if op is Opcode.RSH:
        return dst >> (src & 63)
    if op is Opcode.NEG:
        return (-dst) & _U64
    return None


def _fits_imm(value: int) -> bool:
    """MOV's 32-bit immediate field (sign-extended) can hold this value."""
    return value < (1 << 31) or value >= _U64 - (1 << 31) + 1


def _propagate_block(instructions: List[Instruction]) -> List[Instruction]:
    """Constant propagation + folding over one straight-line block."""
    known: Dict[int, int] = {}
    out: List[Instruction] = []
    for insn in instructions:
        op = insn.opcode
        if op is Opcode.LDDW:
            known[insn.dst] = insn.imm & _U64
            out.append(insn)
            continue
        if op is Opcode.MOV and not insn.uses_reg_src:
            known[insn.dst] = insn.imm & _U64
            out.append(insn)
            continue
        if op is Opcode.MOV and insn.uses_reg_src and insn.src in known:
            value = known[insn.src]
            if _fits_imm(value):
                known[insn.dst] = value
                out.append(Instruction(Opcode.MOV, dst=insn.dst, imm=_signed32(value)))
                continue
            known[insn.dst] = value
            out.append(insn)
            continue
        if insn.is_alu and op is not Opcode.MOV:
            dst_known = insn.dst in known
            src_value: Optional[int]
            if op is Opcode.NEG:
                src_value = 0
                have_src = True
            elif insn.uses_reg_src:
                src_value = known.get(insn.src)
                have_src = src_value is not None
            else:
                src_value = insn.imm & _U64
                have_src = True
            if dst_known and have_src:
                folded = _fold(op, known[insn.dst], src_value)
                if folded is not None and _fits_imm(folded):
                    known[insn.dst] = folded
                    out.append(
                        Instruction(Opcode.MOV, dst=insn.dst, imm=_signed32(folded))
                    )
                    continue
            # Unknown result: the destination is no longer constant.
            known.pop(insn.dst, None)
            out.append(insn)
            continue
        # Loads, calls, stores, jumps: clobbered registers become unknown.
        for reg in _writes(insn):
            known.pop(reg, None)
        out.append(insn)
    return out


def _signed32(value: int) -> int:
    value &= 0xFFFF_FFFF_FFFF_FFFF
    if value >= _U64 - (1 << 31) + 1:
        return value - (1 << 64)
    return value


def _eliminate_dead_block(
    instructions: List[Instruction], live_out: Set[int]
) -> List[Instruction]:
    """Backward pass: drop pure ops whose results are never observed."""
    live = set(live_out)
    kept_reversed: List[Instruction] = []
    for insn in reversed(instructions):
        writes = _writes(insn)
        pure = (insn.is_alu or insn.opcode is Opcode.LDDW) and not insn.is_store
        if pure and writes and not (writes & live):
            continue  # dead: result never read
        for reg in writes:
            live.discard(reg)
        live |= _reads(insn)
        kept_reversed.append(insn)
    return list(reversed(kept_reversed))


def optimize_program(program: Program) -> Program:
    """Apply folding + DCE per basic block until fixpoint.

    Registers are conservatively assumed live out of every block except
    that nothing is live out of an EXIT block beyond the EXIT itself
    (which reads r0). Blocks ending in jumps keep all registers live.
    """
    instructions = list(program.instructions)
    for _ in range(MAX_ROUNDS):
        blocks = build_cfg(Program(instructions, name=program.name))
        changed = False
        rebuilt: List[Instruction] = []
        for block in blocks:
            body = block.instructions
            folded = _propagate_block(body)
            if block.successors:
                live_out = set(range(11))  # conservative across edges
            else:
                live_out = set()  # EXIT's own read of r0 is handled by _reads
            cleaned = _eliminate_dead_block(folded, live_out)
            if cleaned != body:
                changed = True
            rebuilt.extend(cleaned)
        if not changed:
            break
        if _block_spans_changed(blocks, rebuilt):
            # Branch offsets would shift; only rewrite when every block kept
            # its slot span (conservative: otherwise stop optimizing).
            break
        instructions = rebuilt
    return Program(instructions, name=program.name)


def _block_spans_changed(blocks: List[BasicBlock], rebuilt: List[Instruction]) -> bool:
    """True when instruction deletion changed any block's slot span (which
    would invalidate branch offsets)."""
    original = sum(b.slot_span for b in blocks)
    new = sum(insn.slots for insn in rebuilt)
    return original != new


def optimize_straightline(program: Program) -> Program:
    """Aggressive variant for single-block programs (no branch offsets to
    preserve): folding and DCE genuinely shrink the program."""
    blocks = build_cfg(program)
    if len(blocks) != 1:
        return optimize_program(program)
    instructions = list(program.instructions)
    for _ in range(MAX_ROUNDS):
        folded = _propagate_block(instructions)
        cleaned = _eliminate_dead_block(folded, live_out=set())
        if cleaned == instructions:
            break
        instructions = cleaned
    return Program(instructions, name=program.name)
