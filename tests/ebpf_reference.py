"""Test-only reference interpreter: the oracle for ``repro.ebpf.vm``.

This is the ``if op is Opcode.X`` interpreter that ``BpfVm.run`` used
before programs were compiled, kept verbatim (``interpret``, ``_alu``,
``_evaluate_jump`` and the memory accessors) so the generated code can be
compared against an implementation that shares none of its execution code.
It re-derives every fact per executed instruction and is slow on purpose.
Nothing under ``src/`` imports it.

Only the environment helpers see (``map_by_fd``, ``clock_ns``,
``expose_buffer``, ``trace_log``, ``rng``) are inherited from ``BpfVm``;
``_compile`` is overridden to verify the program, compile nothing and
hand ``BpfVm`` the interpreter to bind as ``run``. It runs only verified
programs, so it needs no instruction budget.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ProtocolError
from repro.ebpf.helpers import HELPERS
from repro.ebpf.isa import Instruction, MEM_SIZE, Opcode, STACK_SIZE
from repro.ebpf.verifier import require_verified
from repro.ebpf.vm import (
    CONTEXT_REGION,
    REGION_SHIFT,
    STACK_REGION,
    BpfVm,
    ExecutionResult,
)

_U64 = (1 << 64) - 1
_FIRST_DYNAMIC_REGION = 16


def _u64(value: int) -> int:
    return value & _U64


def _s64(value: int) -> int:
    value &= _U64
    return value - (1 << 64) if value >= (1 << 63) else value


class ReferenceVm(BpfVm):
    """Same constructor and result as :class:`BpfVm`, interpreted slot by slot."""

    def _compile(self):
        """Verify, and compile nothing: ``run`` is :meth:`interpret`."""
        require_verified(self.program)
        return ReferenceVm.interpret

    # -- memory --------------------------------------------------------------
    def _region_buffer(self, pointer: int) -> tuple:
        region = pointer >> REGION_SHIFT
        offset = pointer & ((1 << REGION_SHIFT) - 1)
        buffer = self._regions.get(region)
        if buffer is None:
            raise ProtocolError(f"dereference of invalid pointer {pointer:#x}")
        return buffer, offset

    def read_memory(self, pointer: int, size: int) -> bytes:
        buffer, offset = self._region_buffer(pointer)
        if offset + size > len(buffer):
            raise ProtocolError(
                f"out-of-bounds read at {pointer:#x} ({size} bytes)"
            )
        return bytes(buffer[offset : offset + size])

    def write_memory(self, pointer: int, data: bytes) -> None:
        buffer, offset = self._region_buffer(pointer)
        if offset + len(data) > len(buffer):
            raise ProtocolError(
                f"out-of-bounds write at {pointer:#x} ({len(data)} bytes)"
            )
        buffer[offset : offset + len(data)] = data

    # -- execution -----------------------------------------------------------
    def interpret(self, context: bytes = b"",
                  trace: Optional[list] = None) -> ExecutionResult:
        """Execute the program with ``context`` as its input (r1); *trace*,
        if given, gets ``(pc, registers)`` before each instruction runs."""
        self._regions = {
            STACK_REGION: bytearray(STACK_SIZE),
            CONTEXT_REGION: bytearray(context),
        }
        self._next_region = _FIRST_DYNAMIC_REGION
        regs = [0] * 11
        regs[1] = CONTEXT_REGION << REGION_SHIFT
        regs[2] = len(context)
        regs[10] = (STACK_REGION << REGION_SHIFT) + STACK_SIZE

        pc = 0
        executed = 0
        helper_calls = 0
        while True:
            insn = self.program.at_slot(pc)
            if trace is not None:
                trace.append((pc, tuple(regs)))
            executed += 1
            op = insn.opcode

            if op is Opcode.EXIT:
                return ExecutionResult(
                    return_value=regs[0],
                    instructions_executed=executed,
                    helper_calls=helper_calls,
                    context=self._regions[CONTEXT_REGION],
                )
            if op is Opcode.CALL:
                args = [regs[1], regs[2], regs[3], regs[4], regs[5]]
                regs[0] = _u64(HELPERS[insn.imm](self, args))
                # r1-r5 are clobbered by calls (kernel semantics).
                regs[1:6] = [0, 0, 0, 0, 0]
                helper_calls += 1
                pc += 1
                continue
            if op is Opcode.LDDW:
                regs[insn.dst] = _u64(insn.imm)
                pc += 2
                continue
            if insn.is_alu:
                regs[insn.dst] = self._alu(insn, regs)
                pc += 1
                continue
            if insn.is_load:
                pointer = _u64(regs[insn.src] + insn.offset)
                size = MEM_SIZE[op]
                raw = self.read_memory(pointer, size)
                regs[insn.dst] = int.from_bytes(raw, "little")
                pc += 1
                continue
            if insn.is_store:
                pointer = _u64(regs[insn.dst] + insn.offset)
                size = MEM_SIZE[op]
                value = regs[insn.src] if op.value.startswith("stx") else _u64(insn.imm)
                self.write_memory(pointer, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))  # noqa: E501
                pc += 1
                continue
            if op is Opcode.JA:
                pc += 1 + insn.offset
                continue
            if insn.is_cond_jump:
                taken = self._evaluate_jump(insn, regs)
                pc += 1 + (insn.offset if taken else 0)
                continue
            raise ProtocolError(f"unhandled opcode {op}")

    def _alu(self, insn: Instruction, regs: List[int]) -> int:
        op = insn.opcode
        src = regs[insn.src] if insn.uses_reg_src else _u64(insn.imm)
        dst = regs[insn.dst]
        if op is Opcode.MOV:
            return src
        if op is Opcode.ADD:
            return _u64(dst + src)
        if op is Opcode.SUB:
            return _u64(dst - src)
        if op is Opcode.MUL:
            return _u64(dst * src)
        if op is Opcode.DIV:
            return _u64(dst // src) if src else 0  # div-by-zero yields 0
        if op is Opcode.MOD:
            return _u64(dst % src) if src else dst
        if op is Opcode.OR:
            return dst | src
        if op is Opcode.AND:
            return dst & src
        if op is Opcode.XOR:
            return dst ^ src
        if op is Opcode.LSH:
            return _u64(dst << (src & 63))
        if op is Opcode.RSH:
            return dst >> (src & 63)
        if op is Opcode.ARSH:
            return _u64(_s64(dst) >> (src & 63))
        if op is Opcode.NEG:
            return _u64(-dst)
        raise ProtocolError(f"unhandled ALU op {op}")

    def _evaluate_jump(self, insn: Instruction, regs: List[int]) -> bool:
        op = insn.opcode
        src = regs[insn.src] if insn.uses_reg_src else _u64(insn.imm)
        dst = regs[insn.dst]
        if op is Opcode.JEQ:
            return dst == src
        if op is Opcode.JNE:
            return dst != src
        if op is Opcode.JGT:
            return dst > src
        if op is Opcode.JGE:
            return dst >= src
        if op is Opcode.JLT:
            return dst < src
        if op is Opcode.JLE:
            return dst <= src
        if op is Opcode.JSET:
            return bool(dst & src)
        if op is Opcode.JSGT:
            return _s64(dst) > _s64(src)
        if op is Opcode.JSGE:
            return _s64(dst) >= _s64(src)
        if op is Opcode.JSLT:
            return _s64(dst) < _s64(src)
        if op is Opcode.JSLE:
            return _s64(dst) <= _s64(src)
        raise ProtocolError(f"unhandled jump {op}")
