"""A fluent, label-aware program builder — the in-Python frontend.

The paper (§2.2) treats eBPF as the IR that any frontend can target; the
builder is this reproduction's frontend, used by the applications to emit
offload programs without writing assembler text.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.common.errors import ProtocolError
from repro.ebpf.isa import COND_JUMPS, Instruction, Opcode, Program

Operand = Union[int, str]  # an immediate, or a register name like "r3"


def _is_reg(value: Operand) -> bool:
    return isinstance(value, str) and value.startswith("r")


def _reg(value: Operand) -> int:
    if not _is_reg(value):
        raise ProtocolError(f"expected register name, got {value!r}")
    return int(value[1:])


class ProgramBuilder:
    """Accumulates instructions; ``build()`` resolves label references."""

    def __init__(self, name: str = "prog"):
        self.name = name
        self._items: List[Tuple] = []  # ("insn", Instruction) | ("branch", ...)
        self._labels: Dict[str, int] = {}
        self._slot = 0

    # -- structure -----------------------------------------------------------
    def label(self, name: str) -> "ProgramBuilder":
        if name in self._labels:
            raise ProtocolError(f"duplicate label {name!r}")
        self._labels[name] = self._slot
        return self

    def _emit(self, insn: Instruction) -> "ProgramBuilder":
        self._items.append(("insn", insn))
        self._slot += insn.slots
        return self

    def _emit_branch(self, opcode: Opcode, dst: int, src: int, imm: int,
                     uses_reg_src: bool, target: str) -> "ProgramBuilder":
        self._items.append(
            ("branch", opcode, dst, src, imm, uses_reg_src, target, self._slot)
        )
        self._slot += 1
        return self

    # -- ALU -----------------------------------------------------------------
    def _emit_alu(self, opcode: Opcode, dst: str, src: Operand) -> "ProgramBuilder":
        if _is_reg(src):
            return self._emit(
                Instruction(opcode, dst=_reg(dst), src=_reg(src), uses_reg_src=True)
            )
        return self._emit(Instruction(opcode, dst=_reg(dst), imm=int(src)))

    def mov(self, dst: str, src: Operand) -> "ProgramBuilder":
        return self._emit_alu(Opcode.MOV, dst, src)

    def add(self, dst: str, src: Operand) -> "ProgramBuilder":
        return self._emit_alu(Opcode.ADD, dst, src)

    def sub(self, dst: str, src: Operand) -> "ProgramBuilder":
        return self._emit_alu(Opcode.SUB, dst, src)

    # -- memory --------------------------------------------------------------
    def load(self, size: int, dst: str, base: str, offset: int = 0) -> "ProgramBuilder":
        opcode = {1: Opcode.LDXB, 2: Opcode.LDXH, 4: Opcode.LDXW, 8: Opcode.LDXDW}[size]
        return self._emit(
            Instruction(opcode, dst=_reg(dst), src=_reg(base), offset=offset)
        )

    def store(self, size: int, base: str, offset: int, src: Operand) -> "ProgramBuilder":
        if _is_reg(src):
            opcode = {
                1: Opcode.STXB, 2: Opcode.STXH, 4: Opcode.STXW, 8: Opcode.STXDW,
            }[size]
            return self._emit(
                Instruction(opcode, dst=_reg(base), src=_reg(src), offset=offset)
            )
        opcode = {1: Opcode.STB, 2: Opcode.STH, 4: Opcode.STW, 8: Opcode.STDW}[size]
        return self._emit(
            Instruction(opcode, dst=_reg(base), offset=offset, imm=int(src))
        )

    # -- control flow ----------------------------------------------------------
    def branch(self, opcode: Opcode, dst: str, src: Operand, target: str) -> "ProgramBuilder":
        if opcode not in COND_JUMPS:
            raise ProtocolError(f"{opcode} is not a conditional jump")
        if _is_reg(src):
            return self._emit_branch(opcode, _reg(dst), _reg(src), 0, True, target)
        return self._emit_branch(opcode, _reg(dst), 0, int(src), False, target)

    def jne(self, dst: str, src: Operand, target: str) -> "ProgramBuilder":
        return self.branch(Opcode.JNE, dst, src, target)

    def jgt(self, dst: str, src: Operand, target: str) -> "ProgramBuilder":
        return self.branch(Opcode.JGT, dst, src, target)

    def call(self, helper_id: int) -> "ProgramBuilder":
        return self._emit(Instruction(Opcode.CALL, imm=helper_id))

    def exit(self) -> "ProgramBuilder":
        return self._emit(Instruction(Opcode.EXIT))

    # -- finalize ----------------------------------------------------------
    def build(self) -> Program:
        instructions: List[Instruction] = []
        for item in self._items:
            if item[0] == "insn":
                instructions.append(item[1])
                continue
            __, opcode, dst, src, imm, uses_reg_src, target, slot = item
            if target not in self._labels:
                raise ProtocolError(f"undefined label {target!r}")
            offset = self._labels[target] - (slot + 1)
            instructions.append(
                Instruction(
                    opcode, dst=dst, src=src, offset=offset, imm=imm,
                    uses_reg_src=uses_reg_src,
                )
            )
        return Program(instructions, name=self.name)
