"""A two-pass textual assembler for eBPF.

Syntax (one instruction per line, ``;`` comments, ``name:`` labels)::

    start:
        mov   r0, 0
        lddw  r1, 0x1122334455667788
        ldxdw r2, [r1+8]
        stxdw [r10-8], r2
        jeq   r2, 0, done
        add   r0, r2
        ja    start      ; loops are assembler-legal; the verifier decides
    done:
        exit
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.common.errors import ProtocolError
from repro.ebpf.isa import (
    ALU_OPS,
    COND_JUMPS,
    Instruction,
    LOAD_OPS,
    Opcode,
    Program,
    STORE_IMM_OPS,
    STORE_REG_OPS,
)

_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):$")
_REG_RE = re.compile(r"^r(\d+)$")
_MEM_RE = re.compile(r"^\[r(\d+)\s*([+-]\s*\d+)?\]$")


def _parse_reg(token: str) -> int:
    match = _REG_RE.match(token)
    if not match:
        raise ProtocolError(f"expected register, got {token!r}")
    return int(match.group(1))


def _parse_int(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise ProtocolError(f"expected integer, got {token!r}") from exc


def _parse_mem(token: str) -> Tuple[int, int]:
    match = _MEM_RE.match(token.replace(" ", ""))
    if not match:
        raise ProtocolError(f"expected memory operand, got {token!r}")
    reg = int(match.group(1))
    offset = int(match.group(2) or "0")
    return reg, offset


def _split_operands(rest: str) -> List[str]:
    return [part.strip() for part in rest.split(",") if part.strip()]


def assemble(source: str, name: str = "prog") -> Program:
    """Assemble text into a :class:`Program`."""
    # Pass 1: strip comments, collect labels with their slot indices.
    lines: List[Tuple[str, str]] = []  # (mnemonic, operand string)
    labels: Dict[str, int] = {}
    slot = 0
    for raw_line in source.splitlines():
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            label = label_match.group(1)
            if label in labels:
                raise ProtocolError(f"duplicate label {label!r}")
            labels[label] = slot
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        lines.append((mnemonic, rest))
        slot += 2 if mnemonic == "lddw" else 1

    # Pass 2: emit instructions.
    instructions: List[Instruction] = []
    slot = 0
    for mnemonic, rest in lines:
        insn = _assemble_line(mnemonic, rest, slot, labels)
        instructions.append(insn)
        slot += insn.slots
    return Program(instructions, name=name)


def _branch_offset(target: str, slot: int, labels: Dict[str, int]) -> int:
    """Relative offset in slots from the *next* instruction."""
    if target.startswith(("+", "-")) and target[1:].isdigit():
        return int(target)
    if target in labels:
        return labels[target] - (slot + 1)
    raise ProtocolError(f"unknown branch target {target!r}")


def _assemble_line(
    mnemonic: str, rest: str, slot: int, labels: Dict[str, int]
) -> Instruction:
    try:
        opcode = Opcode(mnemonic)
    except ValueError as exc:
        raise ProtocolError(f"unknown mnemonic {mnemonic!r}") from exc
    ops = _split_operands(rest)

    if opcode is Opcode.EXIT:
        return Instruction(Opcode.EXIT)
    if opcode is Opcode.CALL:
        return Instruction(Opcode.CALL, imm=_parse_int(ops[0]))
    if opcode is Opcode.JA:
        return Instruction(Opcode.JA, offset=_branch_offset(ops[0], slot, labels))
    if opcode in COND_JUMPS:
        if len(ops) != 3:
            raise ProtocolError(f"{mnemonic} needs dst, src/imm, target")
        dst = _parse_reg(ops[0])
        offset = _branch_offset(ops[2], slot, labels)
        if _REG_RE.match(ops[1]):
            return Instruction(
                opcode, dst=dst, src=_parse_reg(ops[1]), offset=offset,
                uses_reg_src=True,
            )
        return Instruction(opcode, dst=dst, imm=_parse_int(ops[1]), offset=offset)
    if opcode is Opcode.LDDW:
        return Instruction(Opcode.LDDW, dst=_parse_reg(ops[0]), imm=_parse_int(ops[1]))
    if opcode in LOAD_OPS:
        dst = _parse_reg(ops[0])
        src, offset = _parse_mem(ops[1])
        return Instruction(opcode, dst=dst, src=src, offset=offset)
    if opcode in STORE_REG_OPS:
        dst, offset = _parse_mem(ops[0])
        return Instruction(opcode, dst=dst, src=_parse_reg(ops[1]), offset=offset)
    if opcode in STORE_IMM_OPS:
        dst, offset = _parse_mem(ops[0])
        return Instruction(opcode, dst=dst, imm=_parse_int(ops[1]), offset=offset)
    if opcode in ALU_OPS:
        dst = _parse_reg(ops[0])
        if opcode is Opcode.NEG:
            return Instruction(Opcode.NEG, dst=dst)
        if len(ops) != 2:
            raise ProtocolError(f"{mnemonic} needs dst and src/imm")
        if _REG_RE.match(ops[1]):
            return Instruction(opcode, dst=dst, src=_parse_reg(ops[1]), uses_reg_src=True)
        return Instruction(opcode, dst=dst, imm=_parse_int(ops[1]))
    raise ProtocolError(f"cannot assemble {mnemonic!r}")
