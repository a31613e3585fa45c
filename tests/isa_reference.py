"""Test-only eBPF decoder: the inverse of ``Instruction.encode``.

Nothing under ``src/`` loads a program from bytes, so the decoder lives
here, where the round-trip tests use it to hold ``encode`` to the ISA:
only opcode bytes ``encode`` can produce are accepted, so
``decode_instruction(raw).encode() == raw``; anything else is rejected by
name.
"""

from __future__ import annotations

import struct

from repro.common.errors import ProtocolError
from repro.ebpf.isa import ALU_OPS, BPF_ALU, JUMP_OPS, Instruction, Opcode, Program

#: opcode byte -> (opcode, uses_reg_src): the inverse of
#: ``Instruction._opcode_byte``. Bytes outside it (ALU32, JMP32, atomics,
#: legacy packet loads, unassigned ALU/JMP codes) do not decode.
_DECODE = {
    Instruction(op, uses_reg_src=reg_src)._opcode_byte(): (op, reg_src)
    for op in Opcode
    for reg_src in ((False, True) if op in ALU_OPS or op in JUMP_OPS else (False,))
}


def _sign32(value: int) -> int:
    return value - (1 << 32) if value >= (1 << 31) else value


def decode_instruction(raw: bytes) -> Instruction:
    """Decode one instruction (16 bytes required for LDDW)."""
    if len(raw) < 8:
        raise ProtocolError("instruction shorter than 8 bytes")
    opcode_byte, regs, offset, imm = struct.unpack("<BBhI", raw[:8])
    dst = regs & 0xF
    src = (regs >> 4) & 0xF
    decoded = _DECODE.get(opcode_byte)
    if decoded is None:
        if opcode_byte & 0x07 == BPF_ALU:
            raise ProtocolError(f"ALU32 not modeled: opcode byte {opcode_byte:#04x}")
        raise ProtocolError(f"cannot decode opcode byte {opcode_byte:#04x}")
    op, uses_reg_src = decoded
    if op is Opcode.LDDW:
        if len(raw) < 16:
            raise ProtocolError("truncated LDDW")
        __, __, __, high = struct.unpack("<BBhI", raw[8:16])
        return Instruction(Opcode.LDDW, dst=dst, src=src, imm=(high << 32) | imm)
    return Instruction(op, dst=dst, src=src, offset=offset, imm=_sign32(imm),
                       uses_reg_src=uses_reg_src)


def decode_program(raw: bytes) -> Program:
    if len(raw) % 8 != 0:
        raise ProtocolError("program length not a multiple of 8")
    instructions = []
    index = 0
    while index < len(raw):
        insn = decode_instruction(raw[index : index + 16])
        instructions.append(insn)
        index += 8 * insn.slots
    return Program(instructions)
