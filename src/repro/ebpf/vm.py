"""The eBPF interpreter: one of "many possible implementations of an eBPF
execution environment" (paper §2.2; cf. ubpf).

Memory model
------------
The VM exposes a segmented 64-bit pointer space: the high 16 bits select a
region, the low 48 bits are an offset. Region 1 is the 512-byte stack
(r10 points one past its end), region 2 is the program context (the packet
or input buffer), and further regions are map values exposed by helpers.
Every access is bounds-checked; faults raise :class:`ProtocolError`.

Execution model
---------------
A program is translated once, when its :class:`BpfVm` is built, into one
*step* per instruction slot: a closure ``step(regs) -> next_pc`` that has
captured everything constant about its instruction (operand registers, the
masked immediate, the access size, pre-encoded store bytes, the ALU or
comparison operator, the fall-through and taken pcs). ``run()`` is then a
single loop — budget check, pc check, count, ``pc = steps[pc](regs)`` —
and EXIT's step returns ``None``. What is *not* captured is anything a
caller may change after construction: a CALL still goes through
``vm.helpers.call`` (late registration, "unknown helper"), maps through
``vm.map_by_fd``, and the budget is read per run. There is one execution
path; ``tests/ebpf_reference.py`` keeps the former ``if``-chain
interpreter as the oracle the translation is tested against.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import ProtocolError
from repro.ebpf.helpers import standard_helpers
from repro.ebpf.isa import (
    ALU_OPS,
    COND_JUMPS,
    Instruction,
    LOAD_OPS,
    MEM_SIZE,
    Opcode,
    Program,
    STACK_SIZE,
    STORE_OPS,
    STORE_REG_OPS,
)
from repro.ebpf.maps import BpfMap

_U64 = (1 << 64) - 1
REGION_SHIFT = 48
_OFFSET_MASK = (1 << REGION_SHIFT) - 1
STACK_REGION = 1
CONTEXT_REGION = 2
_FIRST_DYNAMIC_REGION = 16

#: A new VM's instruction budget per run (the ``max_instructions``
#: attribute a caller may lower before a run).
MAX_INSTRUCTIONS = 1_000_000

#: One translated instruction slot: mutates ``regs`` (and memory), returns
#: the next pc, or ``None`` from EXIT.
Step = Callable[[List[int]], Optional[int]]


def _u64(value: int) -> int:
    return value & _U64


def _s64(value: int) -> int:
    value &= _U64
    return value - (1 << 64) if value >= (1 << 63) else value


#: ``(dst, src) -> new dst`` on u64 operands. Division by zero yields 0 and
#: modulo by zero leaves dst, as the kernel defines them.
_ALU: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.MOV: lambda dst, src: src,
    Opcode.ADD: lambda dst, src: (dst + src) & _U64,
    Opcode.SUB: lambda dst, src: (dst - src) & _U64,
    Opcode.MUL: lambda dst, src: (dst * src) & _U64,
    Opcode.DIV: lambda dst, src: dst // src if src else 0,
    Opcode.MOD: lambda dst, src: dst % src if src else dst,
    Opcode.OR: operator.or_,
    Opcode.AND: operator.and_,
    Opcode.XOR: operator.xor,
    Opcode.LSH: lambda dst, src: (dst << (src & 63)) & _U64,
    Opcode.RSH: lambda dst, src: dst >> (src & 63),
    Opcode.ARSH: lambda dst, src: (_s64(dst) >> (src & 63)) & _U64,
    Opcode.NEG: lambda dst, src: -dst & _U64,
}

#: ``(dst, src) -> truthy when the branch is taken``.
_TAKEN: Dict[Opcode, Callable[[int, int], object]] = {
    Opcode.JEQ: operator.eq,
    Opcode.JNE: operator.ne,
    Opcode.JGT: operator.gt,
    Opcode.JGE: operator.ge,
    Opcode.JLT: operator.lt,
    Opcode.JLE: operator.le,
    Opcode.JSET: operator.and_,
    Opcode.JSGT: lambda dst, src: _s64(dst) > _s64(src),
    Opcode.JSGE: lambda dst, src: _s64(dst) >= _s64(src),
    Opcode.JSLT: lambda dst, src: _s64(dst) < _s64(src),
    Opcode.JSLE: lambda dst, src: _s64(dst) <= _s64(src),
}


def _exit_step(regs: List[int]) -> None:
    return None


def _trap_step(message: str) -> Step:
    """A slot that faults when (and only when) execution reaches it."""

    def trap(regs: List[int]) -> int:
        raise ProtocolError(message)

    return trap


def _lddw_step(dst: int, value: int, next_pc: int) -> Step:
    def lddw(regs: List[int]) -> int:
        regs[dst] = value
        return next_pc

    return lddw


def _ja_step(target: int) -> Step:
    def ja(regs: List[int]) -> int:
        return target

    return ja


def _binop_step(insn: Instruction, next_pc: int) -> Step:
    fn, dst, src, imm = _ALU[insn.opcode], insn.dst, insn.src, _u64(insn.imm)

    def alu_reg(regs: List[int]) -> int:
        regs[dst] = fn(regs[dst], regs[src])
        return next_pc

    def alu_imm(regs: List[int]) -> int:
        regs[dst] = fn(regs[dst], imm)
        return next_pc

    return alu_reg if insn.uses_reg_src else alu_imm


def _jump_step(insn: Instruction, next_pc: int) -> Step:
    taken, dst, src, imm = _TAKEN[insn.opcode], insn.dst, insn.src, _u64(insn.imm)
    target = next_pc + insn.offset

    def jump_reg(regs: List[int]) -> int:
        return target if taken(regs[dst], regs[src]) else next_pc

    def jump_imm(regs: List[int]) -> int:
        return target if taken(regs[dst], imm) else next_pc

    return jump_reg if insn.uses_reg_src else jump_imm


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    return_value: int
    instructions_executed: int
    helper_calls: int
    context: bytearray


class BpfVm:
    """An execution environment bound to a program, maps, and helpers."""

    def __init__(self, program: Program,
                 maps: Optional[Dict[int, BpfMap]] = None):
        self.program = program
        self.maps = maps or {}
        self.helpers = standard_helpers()
        #: Instructions one run may execute; read per run.
        self.max_instructions = MAX_INSTRUCTIONS
        self.rng = random.Random(0)
        self.trace_log: List[tuple] = []
        self._clock_ns = 0
        # One dict for the VM's life, refilled per run: the load/store
        # steps hold its ``get``.
        self._regions: Dict[int, bytearray] = {}
        self._next_region = _FIRST_DYNAMIC_REGION
        self._helper_calls = 0
        self._steps = self._translate()

    # -- environment hooks ---------------------------------------------------
    def map_by_fd(self, fd: int) -> BpfMap:
        bpf_map = self.maps.get(fd)
        if bpf_map is None:
            raise ProtocolError(f"no map with fd {fd}")
        return bpf_map

    def clock_ns(self) -> int:
        self._clock_ns += 1
        return self._clock_ns

    def expose_buffer(self, buffer: bytearray) -> int:
        """Register a live buffer as a region; returns a VM pointer to it."""
        region = self._next_region
        self._next_region += 1
        self._regions[region] = buffer
        return region << REGION_SHIFT

    # -- memory --------------------------------------------------------------
    def _memory_fault(self, pointer: int, size: int, access: str) -> ProtocolError:
        """The named error for an access that failed its checks."""
        if pointer >> REGION_SHIFT not in self._regions:
            return ProtocolError(f"dereference of invalid pointer {pointer:#x}")
        return ProtocolError(
            f"out-of-bounds {access} at {pointer:#x} ({size} bytes)"
        )

    def read_memory(self, pointer: int, size: int) -> bytes:
        buffer = self._regions.get(pointer >> REGION_SHIFT)
        offset = pointer & _OFFSET_MASK
        if buffer is None or offset + size > len(buffer):
            raise self._memory_fault(pointer, size, "read")
        return bytes(buffer[offset : offset + size])

    # -- translation ---------------------------------------------------------
    def _translate(self) -> List[Step]:
        """One step per instruction slot, built once per VM."""
        steps: List[Step] = []
        for insn in self.program.instructions:
            pc = len(steps)
            steps.append(self._step(insn, pc + insn.slots))
            if insn.slots == 2:
                steps.append(
                    _trap_step(f"pc {pc + 1} lands in the middle of LDDW")
                )
        return steps

    def _step(self, insn: Instruction, next_pc: int) -> Step:
        op = insn.opcode
        if op is Opcode.EXIT:
            return _exit_step
        if op is Opcode.CALL:
            return self._call_step(insn.imm, next_pc)
        if op is Opcode.LDDW:
            return _lddw_step(insn.dst, _u64(insn.imm), next_pc)
        if op in ALU_OPS:
            return _binop_step(insn, next_pc)
        if op in LOAD_OPS:
            return self._load_step(insn, next_pc)
        if op in STORE_OPS:
            return self._store_step(insn, next_pc)
        if op is Opcode.JA:
            return _ja_step(next_pc + insn.offset)
        if op in COND_JUMPS:
            return _jump_step(insn, next_pc)
        return _trap_step(f"unhandled opcode {op}")

    def _call_step(self, helper_id: int, next_pc: int) -> Step:
        def call(regs: List[int]) -> int:
            # Resolved per call: helpers may be registered after the VM is built.
            regs[0] = _u64(self.helpers.call(helper_id, self, regs[1:6]))
            # r1-r5 are clobbered by calls (kernel semantics).
            regs[1:6] = (0, 0, 0, 0, 0)
            self._helper_calls += 1
            return next_pc

        return call

    def _load_step(self, insn: Instruction, next_pc: int) -> Step:
        dst, src, offset, size = insn.dst, insn.src, insn.offset, MEM_SIZE[insn.opcode]
        region_of, fault = self._regions.get, self._memory_fault

        def load(regs: List[int]) -> int:
            pointer = (regs[src] + offset) & _U64
            buffer = region_of(pointer >> REGION_SHIFT)
            start = pointer & _OFFSET_MASK
            end = start + size
            if buffer is None or end > len(buffer):
                raise fault(pointer, size, "read")
            regs[dst] = int.from_bytes(buffer[start:end], "little")
            return next_pc

        return load

    def _store_step(self, insn: Instruction, next_pc: int) -> Step:
        dst, src, offset, size = insn.dst, insn.src, insn.offset, MEM_SIZE[insn.opcode]
        mask = (1 << (8 * size)) - 1
        data = (insn.imm & mask).to_bytes(size, "little")
        region_of, fault = self._regions.get, self._memory_fault

        def store_reg(regs: List[int]) -> int:
            pointer = (regs[dst] + offset) & _U64
            buffer = region_of(pointer >> REGION_SHIFT)
            start = pointer & _OFFSET_MASK
            end = start + size
            if buffer is None or end > len(buffer):
                raise fault(pointer, size, "write")
            buffer[start:end] = (regs[src] & mask).to_bytes(size, "little")
            return next_pc

        def store_imm(regs: List[int]) -> int:
            pointer = (regs[dst] + offset) & _U64
            buffer = region_of(pointer >> REGION_SHIFT)
            start = pointer & _OFFSET_MASK
            end = start + size
            if buffer is None or end > len(buffer):
                raise fault(pointer, size, "write")
            buffer[start:end] = data
            return next_pc

        return store_reg if insn.opcode in STORE_REG_OPS else store_imm

    # -- execution -----------------------------------------------------------
    def run(self, context: bytes = b"") -> ExecutionResult:
        """Execute the program with ``context`` as its input (r1)."""
        regions = self._regions
        regions.clear()
        regions[STACK_REGION] = bytearray(STACK_SIZE)
        regions[CONTEXT_REGION] = packet = bytearray(context)
        self._next_region = _FIRST_DYNAMIC_REGION
        self._helper_calls = 0
        regs = [0] * 11
        regs[1] = CONTEXT_REGION << REGION_SHIFT
        regs[2] = len(context)
        regs[10] = (STACK_REGION << REGION_SHIFT) + STACK_SIZE

        steps = self._steps
        slots = len(steps)
        budget = self.max_instructions
        pc: Optional[int] = 0
        executed = 0
        while pc is not None:
            if executed >= budget:
                raise ProtocolError(f"instruction budget exhausted ({budget})")
            if not 0 <= pc < slots:
                raise ProtocolError(f"pc {pc} out of range")
            executed += 1
            pc = steps[pc](regs)
        return ExecutionResult(
            return_value=regs[0],
            instructions_executed=executed,
            helper_calls=self._helper_calls,
            context=packet,
        )
