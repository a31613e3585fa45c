"""The eBPF execution environment: one of "many possible implementations of
an eBPF execution environment" (paper §2.2; cf. ubpf).

Memory model
------------
The VM exposes a segmented 64-bit pointer space: the high 16 bits select a
region, the low 48 bits are an offset. Region 1 is the 512-byte stack
(r10 points one past its end), region 2 is the program context (the packet
or input buffer), and further regions are map values exposed by helpers.
Every access is bounds-checked; faults raise :class:`ProtocolError`.

Execution model
---------------
A program is compiled once, when its :class:`BpfVm` is built, into one
Python function. r0-r10 are its locals; each basic block (leaders: pc 0,
every jump target, the slot after a jump, EXIT or trap) is straight-line
code under ``if pc == leader:``, and the instruction budget is checked once
per block. A block that would cross the budget continues in a *checked*
twin, compiled the first time a run needs it, which checks and counts
before every instruction. The text comes from fixed statement templates
and two closed expression tables; the only things interpolated are
integers and register numbers from :class:`Instruction` fields. What is
*not* compiled in is anything a caller may change after construction: a
CALL looks its helper up in the registry's table at the call (late
registration, "unknown helper"), maps go through ``vm.map_by_fd``, and
the budget and the registry are read per run.
There is one execution path; ``tests/ebpf_reference.py`` keeps the former
``if``-chain interpreter as the oracle the compiled code is tested against.
"""

from __future__ import annotations

import hashlib
import linecache
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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

#: Compiled programs get a pseudo-filename in this package's directory, so
#: a profile charges them to ``ebpf``.
_HERE = os.path.dirname(os.path.abspath(__file__))

_REGS = ", ".join(f"r{reg}" for reg in range(11))

#: The new dst per ALU opcode, over u64 operands: ``{d}`` a register,
#: ``{s}`` a register or the immediate masked to u64. Division by zero
#: yields 0 and modulo by zero leaves dst, as the kernel defines them.
_ALU_EXPR = {
    Opcode.MOV: "{s}",
    Opcode.ADD: "({d} + {s}) & 0xffffffffffffffff",
    Opcode.SUB: "({d} - {s}) & 0xffffffffffffffff",
    Opcode.MUL: "({d} * {s}) & 0xffffffffffffffff",
    Opcode.DIV: "{d} // {s} if {s} else 0",
    Opcode.MOD: "{d} % {s} if {s} else {d}",
    Opcode.OR: "{d} | {s}",
    Opcode.AND: "{d} & {s}",
    Opcode.XOR: "{d} ^ {s}",
    Opcode.LSH: "({d} << ({s} & 63)) & 0xffffffffffffffff",
    Opcode.RSH: "{d} >> ({s} & 63)",
    Opcode.ARSH: "((({d} ^ 0x8000000000000000) - 0x8000000000000000)"
                 " >> ({s} & 63)) & 0xffffffffffffffff",
    Opcode.NEG: "-{d} & 0xffffffffffffffff",
}

#: When a conditional jump is taken. Signed order on u64 values is
#: unsigned order with the sign bit flipped.
_TAKEN_EXPR = {
    Opcode.JEQ: "{d} == {s}",
    Opcode.JNE: "{d} != {s}",
    Opcode.JGT: "{d} > {s}",
    Opcode.JGE: "{d} >= {s}",
    Opcode.JLT: "{d} < {s}",
    Opcode.JLE: "{d} <= {s}",
    Opcode.JSET: "{d} & {s}",
    Opcode.JSGT: "{d} ^ 0x8000000000000000 > {s} ^ 0x8000000000000000",
    Opcode.JSGE: "{d} ^ 0x8000000000000000 >= {s} ^ 0x8000000000000000",
    Opcode.JSLT: "{d} ^ 0x8000000000000000 < {s} ^ 0x8000000000000000",
    Opcode.JSLE: "{d} ^ 0x8000000000000000 <= {s} ^ 0x8000000000000000",
}

_BUDGET_CHECK = [
    "if executed >= budget:",
    '    raise ProtocolError(f"instruction budget exhausted ({budget})")',
]

#: One slot's code: its lines, the pcs it may jump to (``None`` when it
#: falls through, empty when it ends the run), and the pc after it.
Statement = Tuple[List[str], Optional[Tuple[int, ...]], int]


def _access(base: str, offset: int, size: int, access: str) -> List[str]:
    """``buffer[start:end]`` is ``[base + offset]``, or the access faults."""
    pointer = f"({base} + {offset:d}) & 0xffffffffffffffff" if offset else base
    return [
        f"pointer = {pointer}",
        f"buffer = region_of(pointer >> {REGION_SHIFT:d})",
        f"start = pointer & {_OFFSET_MASK:#x}",
        f"end = start + {size:d}",
        "if buffer is None or end > len(buffer):",
        f"    raise fault(vm, pointer, {size:d}, '{access}')",
    ]


def _statement(insn: Instruction, pc: int) -> Optional[Statement]:
    """The code of the instruction at *pc*; ``None`` for an unknown opcode."""
    op, d, after = insn.opcode, f"r{insn.dst:d}", pc + insn.slots
    s = f"r{insn.src:d}" if insn.uses_reg_src else f"{insn.imm & _U64:d}"
    if op in ALU_OPS:
        return [f"{d} = " + _ALU_EXPR[op].format(d=d, s=s)], None, after
    if op in COND_JUMPS:
        taken, target = _TAKEN_EXPR[op].format(d=d, s=s), after + insn.offset
        return [f"pc = {target:d} if {taken} else {after:d}"], (target,), after
    if op is Opcode.JA:
        return [f"pc = {after + insn.offset:d}"], (after + insn.offset,), after
    if op is Opcode.EXIT:
        return ["return r0, executed, calls"], (), after
    if op is Opcode.CALL:
        return [
            # Resolved per call: helpers may be registered after the VM is built.
            f"helper = helper_of({insn.imm:d})",
            "if helper is None:",
            f"    raise ProtocolError('unknown helper {insn.imm:d}')",
            "r0 = helper(vm, [r1, r2, r3, r4, r5]) & 0xffffffffffffffff",
            "r1 = r2 = r3 = r4 = r5 = 0",  # clobbered by calls (kernel semantics)
            "calls += 1",
        ], None, after
    if op is Opcode.LDDW:
        return [f"{d} = {insn.imm & _U64:d}"], None, after
    if op in LOAD_OPS:
        return _access(f"r{insn.src:d}", insn.offset, MEM_SIZE[op], "read") + [
            f"{d} = from_bytes(buffer[start:end], 'little')",
        ], None, after
    if op in STORE_OPS:
        size = MEM_SIZE[op]
        mask = (1 << (8 * size)) - 1
        value = (f"r{insn.src:d} & {mask:#x}" if op in STORE_REG_OPS
                 else f"{insn.imm & mask:d}")
        return _access(d, insn.offset, size, "write") + [
            f"buffer[start:end] = ({value}).to_bytes({size:d}, 'little')",
        ], None, after
    return None


def _source(program: Program, checked: bool) -> Tuple[str, List[str]]:
    """The text of *program*'s ``run`` function, and the messages its traps
    raise. *checked*: the twin that checks the budget per instruction."""
    traps: List[str] = []

    def trap(message: str, pc: int) -> Statement:
        traps.append(message)
        return [f"raise ProtocolError(traps[{len(traps) - 1:d}])"], (), pc + 1

    code: Dict[int, Statement] = {}
    slots = 0
    for insn in program.instructions:
        code[slots] = (_statement(insn, slots)
                       or trap(f"unhandled opcode {insn.opcode}", slots))
        slots += insn.slots
    leaders = {0}
    for _, successors, after in code.values():
        if successors is not None:
            leaders.update(successors, (after,))
    # A jump into an LDDW's second slot traps there; the LDDW itself
    # falls through past it.
    for pc in sorted(leaders - code.keys()):
        if 0 < pc < slots:
            code[pc] = trap(f"pc {pc} lands in the middle of LDDW", pc)
            leaders.add(pc + 1)

    # ``**_`` takes the scratch locals (``pointer``, ``buffer``, ...) that
    # come along when the unchecked function hands over its ``locals()``.
    lines = [f"def run(vm, region_of, helper_of, budget, pc, executed, calls,"
             f" {_REGS}, **_):",
             "    while True:"]
    starts = sorted(pc for pc in leaders if 0 <= pc < slots)
    for leader, end in zip(starts, starts[1:] + [slots]):
        body, pc, successors = [], leader, None
        while pc < end and successors is None:
            statement, successors, pc = code[pc]
            body.append(statement)
        lines.append(f"        if pc == {leader:d}:")
        if not checked:
            lines += [f"            if executed + {len(body):d} > budget:",
                      "                break",
                      f"            executed += {len(body):d}"]
        for statement in body:
            if checked:
                statement = _BUDGET_CHECK + ["executed += 1"] + statement
            lines += ["            " + line for line in statement]
        if successors is None:
            lines.append(f"            pc = {pc:d}")
    lines.append(f"        if not 0 <= pc < {slots:d}:")
    if checked:
        lines += ["            " + line for line in _BUDGET_CHECK]
        lines.append('            raise ProtocolError(f"pc {pc} out of range")')
    else:
        # Over budget at a block, or off the program: the twin raises.
        lines += ["            break", "    return checked(vm)(**locals())"]
    return "\n".join(lines) + "\n", traps


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    __slots__ = ("return_value", "instructions_executed", "helper_calls",
                 "context")
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
        # One dict for the VM's life, refilled per run.
        self._regions: Dict[int, bytearray] = {}
        self._next_region = _FIRST_DYNAMIC_REGION
        self._run = self._compile(checked=False)
        self._checked_run: Optional[Callable] = None

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

    # -- compilation ---------------------------------------------------------
    def _compile(self, checked: bool) -> Callable:
        """The program as one function (see the module docstring)."""
        source, traps = _source(self.program, checked)
        digest = hashlib.blake2b(source.encode(), digest_size=8).hexdigest()
        filename = os.path.join(_HERE, f"<bpf:{digest}>")
        # Tracebacks show the generated line; identical programs share it.
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        namespace = {
            "ProtocolError": ProtocolError,
            "from_bytes": int.from_bytes,
            "fault": BpfVm._memory_fault,
            "checked": BpfVm._checked,
            "traps": traps,
        }
        exec(compile(source, filename, "exec"), namespace)
        return namespace["run"]

    def _checked(self) -> Callable:
        """The twin a block that would cross the budget continues in."""
        if self._checked_run is None:
            self._checked_run = self._compile(checked=True)
        return self._checked_run

    # -- execution -----------------------------------------------------------
    def run(self, context: bytes = b"") -> ExecutionResult:
        """Execute the program with ``context`` as its input (r1)."""
        regions = self._regions
        regions.clear()
        regions[STACK_REGION] = bytearray(STACK_SIZE)
        regions[CONTEXT_REGION] = packet = bytearray(context)
        self._next_region = _FIRST_DYNAMIC_REGION
        return_value, executed, calls = self._run(
            self, regions.get, self.helpers.table.get,
            self.max_instructions, 0, 0, 0,
            0, CONTEXT_REGION << REGION_SHIFT, len(context), 0, 0, 0, 0, 0,
            0, 0, (STACK_REGION << REGION_SHIFT) + STACK_SIZE,
        )
        return ExecutionResult(return_value, executed, calls, packet)
