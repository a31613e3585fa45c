r"""The eBPF execution environment: one of "many possible implementations of
an eBPF execution environment" (paper §2.2; cf. ubpf).

A :class:`BpfVm` runs only what the verifier accepts: building one
verifies its program and raises :class:`VerificationError` naming the pc
it rejects (:func:`repro.ebpf.verifier.require_verified`). So every jump
a run takes goes forward, to an instruction's first slot, no run writes
r10, every CALL names a helper in :data:`repro.ebpf.helpers.HELPERS`, and
every stack access a run makes is inside the 512 bytes.

Memory model: a segmented 64-bit pointer space, the high 16 bits a region
and the low 48 an offset. Region 1 is the 512-byte stack (r10 points one
past its end), region 2 the program context (the packet or input buffer),
and further regions are map values exposed by helpers. What the verifier
cannot bound (the end of the context, of a map value, of a helper's key)
is checked at run time; faults raise :class:`ProtocolError`.

Execution model: a program is compiled once, when its :class:`BpfVm` is
built, into one Python function that owns the run: it builds the regions
and registers, reads the context's length and returns the result. r0-r10
are its locals; each basic block (:func:`repro.ebpf.isa.leaders`) is
straight-line code under ``if pc == leader:``, and since every jump goes
forward the blocks are tested once each, in pc order. An access through a
pointer the compiler can see (r10 anywhere, r1 in the pc-0 block, and
their MOV copies and immediate ADD/SUB shifts) is a struct codec on the
run's stack, unchecked, or on its context, checked against its length;
any other access looks its region up per run. The text comes from
fixed templates and two closed expression tables; only integers and
register numbers from :class:`Instruction` fields are interpolated. Each
helper is bound into the function by id; a lookup with a constant fd and a
stack key runs inline. ``tests/ebpf_reference.py`` keeps the former
``if``-chain interpreter as the oracle the compiled code is tested
against.

>>> from repro.ebpf import assemble
>>> result = BpfVm(assemble("ldxb r0, [r1+0]\nadd r0, 1\nexit")).run(b"\x29")
>>> result.return_value, result.instructions_executed
(42, 3)
>>> BpfVm(assemble("ldxb r0, [r1+1]\nexit")).run(b"\x29")
Traceback (most recent call last):
...
repro.common.errors.ProtocolError: out-of-bounds read at 0x2000000000001 (1 bytes)
>>> BpfVm(assemble("ldxdw r0, [r10+0]\nexit"))
Traceback (most recent call last):
...
repro.common.errors.VerificationError: program 'prog' rejected: pc 0: stack access [0, 8) outside [-512, 0)
"""

from __future__ import annotations

import hashlib
import linecache
import os
import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.ebpf.helpers import HELPER_MAP_LOOKUP, HELPERS
from repro.ebpf.isa import (
    ALU_OPS, BLOCK_END_OPS, COND_JUMPS, Instruction, LOAD_OPS, MEM_SIZE, Opcode,
    Program, STACK_SIZE, STORE_REG_OPS, leaders,
)
from repro.ebpf.maps import BpfMap
from repro.ebpf.verifier import require_verified

_U64 = (1 << 64) - 1
REGION_SHIFT = 48
_OFFSET_MASK = (1 << REGION_SHIFT) - 1
STACK_REGION = 1
CONTEXT_REGION = 2
_FIRST_DYNAMIC_REGION = 16
#: r10 and r1 when a run starts: one past the stack's end, the context.
FRAME_POINTER = (STACK_REGION << REGION_SHIFT) + STACK_SIZE
CONTEXT_POINTER = CONTEXT_REGION << REGION_SHIFT

#: The generated code's unsigned little-endian codecs, by access size:
#: ``load4(buffer, start)`` and ``store4(buffer, start, value)``.
_CODECS = {f"{kind}{size}": getattr(struct.Struct(code), method)
           for size, code in ((1, "<B"), (2, "<H"), (4, "<I"), (8, "<Q"))
           for kind, method in (("load", "unpack_from"), ("store", "pack_into"))}

#: Compiled programs get a pseudo-filename in this package's directory, so
#: a profile charges them to ``ebpf``.
_HERE = os.path.dirname(os.path.abspath(__file__))

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

#: The opcodes that write their dst register; a CALL writes r0-r5.
_WRITES_DST = ALU_OPS | LOAD_OPS | {Opcode.LDDW}


def _track(insn: Instruction, known: Dict[int, int]) -> None:
    """*known* after *insn*: MOV copies a known register or an immediate,
    ADD/SUB of an immediate shifts it with the same u64 wrap, any other
    write forgets."""
    op, dst = insn.opcode, insn.dst
    if op is Opcode.CALL:
        for reg in range(6):
            known.pop(reg, None)
    elif op in _WRITES_DST:
        source, base = known.get(insn.src), known.pop(dst, None)
        shift = {Opcode.ADD: insn.imm, Opcode.SUB: -insn.imm}.get(op)
        if op is Opcode.MOV:
            source = source if insn.uses_reg_src else insn.imm & _U64
            if source is not None:
                known[dst] = source
        elif shift is not None and not insn.uses_reg_src and base is not None:
            known[dst] = (base + shift) & _U64


def _access(base: int, offset: int, size: int, access: str,
            known: Dict[int, int]) -> Tuple[List[str], str]:
    """The checks that ``[r{base} + offset]`` holds *size* bytes, or the
    access faults, and the ``buffer, start`` its codec then takes. A
    verified access through a *known* base is on the stack, inside the
    window the verifier checked, or on the context, whose end only the
    run knows."""
    if base in known:
        pointer = (known[base] + offset) & _U64
        start = pointer & _OFFSET_MASK
        if pointer >> REGION_SHIFT == STACK_REGION:
            return [], f"stack, {start:d}"
        return [
            f"if {start + size:d} > length:",
            f"    raise fault(vm, {pointer:#x}, {size:d}, '{access}')",
        ], f"context, {start:d}"
    pointer = (f"(r{base:d} + {offset:d}) & 0xffffffffffffffff" if offset
               else f"r{base:d}")
    return [
        f"pointer = {pointer}",
        f"buffer = region_of(pointer >> {REGION_SHIFT:d})",
        f"start = pointer & {_OFFSET_MASK:#x}",
        f"if buffer is None or start + {size:d} > len(buffer):",
        f"    raise fault(vm, pointer, {size:d}, '{access}')",
    ], "buffer, start"


def _call(helper_id: int, known: Dict[int, int]) -> List[str]:
    """A CALL of the helper bound as ``helper{id}``, r1-r5 clobbered after
    it as in the kernel. A map lookup whose fd and stack key are *known*
    runs inline."""
    key = known.get(2, 0)
    if (helper_id == HELPER_MAP_LOOKUP and key >> REGION_SHIFT == STACK_REGION
            and 1 in known):
        start = key & _OFFSET_MASK
        call = [  # ``map_lookup`` and ``expose_buffer``, faults included
            f"bpf_map = vm.map_by_fd({known[1]:d})",
            "size = bpf_map.key_size",
            f"if size > {STACK_SIZE - start:d}:",
            f"    raise fault(vm, {key:#x}, size, 'read')",
            f"value = bpf_map.lookup(bytes(stack[{start:d}:{start:d} + size]))",
            "if value is None:",
            "    r0 = 0",
            "else:",
            "    region = vm._next_region",
            "    vm._next_region = region + 1",
            "    regions[region] = value",
            f"    r0 = (region << {REGION_SHIFT:d}) & 0xffffffffffffffff",
        ]
    else:
        call = [f"r0 = helper{helper_id:d}(vm, [r1, r2, r3, r4, r5])"
                " & 0xffffffffffffffff"]
    return call + ["r1 = r2 = r3 = r4 = r5 = 0", "calls += 1"]


def _statement(insn: Instruction, pc: int, known: Dict[int, int]) -> List[str]:
    """The code of the instruction at *pc*, given the registers *known* at
    compile time."""
    op, d, after = insn.opcode, f"r{insn.dst:d}", pc + insn.slots
    s = f"r{insn.src:d}" if insn.uses_reg_src else f"{insn.imm & _U64:d}"
    if op in ALU_OPS:
        return [f"{d} = " + _ALU_EXPR[op].format(d=d, s=s)]
    if op in COND_JUMPS:
        taken = _TAKEN_EXPR[op].format(d=d, s=s)
        return [f"pc = {after + insn.offset:d} if {taken} else {after:d}"]
    if op is Opcode.JA:
        return [f"pc = {after + insn.offset:d}"]
    if op is Opcode.EXIT:
        return ["return ExecutionResult(r0, executed, calls, context)"]
    if op is Opcode.CALL:
        return _call(insn.imm, known)
    if op is Opcode.LDDW:
        return [f"{d} = {insn.imm & _U64:d}"]
    if op in LOAD_OPS:
        checks, args = _access(insn.src, insn.offset, MEM_SIZE[op], "read", known)
        return checks + [f"{d}, = load{MEM_SIZE[op]:d}({args})"]
    # A store: the verifier admits no other opcode.
    size = MEM_SIZE[op]
    mask = (1 << (8 * size)) - 1
    value = (f"r{insn.src:d} & {mask:#x}" if op in STORE_REG_OPS
             else f"{insn.imm & mask:d}")
    checks, args = _access(insn.dst, insn.offset, size, "write", known)
    return checks + [f"store{size:d}({args}, {value})"]


def _source(program: Program) -> str:
    """The text of *program*'s ``run`` function."""
    lines = [  # The run's set-up: regions 1 and 2 for the helpers and the code.
        "def run(vm, data):",
        "    regions = vm._regions",
        "    regions.clear()",
        f"    regions[{STACK_REGION:d}] = stack = bytearray({STACK_SIZE:d})",
        f"    regions[{CONTEXT_REGION:d}] = context = bytearray(data)",
        f"    vm._next_region = {_FIRST_DYNAMIC_REGION:d}",
        "    region_of = regions.get",
        "    pc = executed = calls = r0 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = 0",
        f"    r1, r2, r10 = {CONTEXT_POINTER:d}, len(context), {FRAME_POINTER:d}",
        "    length = r2",
    ]
    starts = leaders(program)
    for leader, end in zip(starts, starts[1:] + [len(program)]):
        # r10 is the frame pointer throughout, and r1 the context at pc 0,
        # which no jump reaches.
        known = {10: FRAME_POINTER}
        if leader == 0:
            known[1] = CONTEXT_POINTER
        body, pc = [], leader
        while pc < end:
            insn = program.at_slot(pc)
            body.append(_statement(insn, pc, known))
            _track(insn, known)
            pc += insn.slots
        lines += [f"    if pc == {leader:d}:", f"        executed += {len(body):d}"]
        for statement in body:
            lines += ["        " + line for line in statement]
        if insn.opcode not in BLOCK_END_OPS:
            lines.append(f"        pc = {pc:d}")
    return "\n".join(lines) + "\n"


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    __slots__ = ("return_value", "instructions_executed", "helper_calls", "context")
    return_value: int
    instructions_executed: int
    helper_calls: int
    context: bytearray


class BpfVm:
    """An execution environment bound to a verified program and its maps."""

    def __init__(self, program: Program,
                 maps: Optional[Dict[int, BpfMap]] = None):
        require_verified(program)
        self.program = program
        self.maps = maps if maps is not None else {}
        self.rng = random.Random(0)
        self.trace_log: List[tuple] = []
        self._clock_ns = 0
        # One dict for the VM's life, refilled per run.
        self._regions: Dict[int, bytearray] = {}
        self._next_region = _FIRST_DYNAMIC_REGION
        self._run = self._compile()

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
        return ProtocolError(f"out-of-bounds {access} at {pointer:#x} ({size} bytes)")

    def read_memory(self, pointer: int, size: int) -> bytes:
        buffer = self._regions.get(pointer >> REGION_SHIFT)
        offset = pointer & _OFFSET_MASK
        if buffer is None or offset + size > len(buffer):
            raise self._memory_fault(pointer, size, "read")
        return bytes(buffer[offset : offset + size])

    # -- compilation ---------------------------------------------------------
    def _compile(self) -> Callable:
        """The program as one function (see the module docstring)."""
        source = _source(self.program)
        digest = hashlib.blake2b(source.encode(), digest_size=8).hexdigest()
        filename = os.path.join(_HERE, f"<bpf:{digest}>")
        # Tracebacks show the generated line; identical programs share it.
        linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                     filename)
        namespace = {
            "fault": BpfVm._memory_fault,
            "ExecutionResult": ExecutionResult,
            **{f"helper{helper_id:d}": helper for helper_id, helper in HELPERS.items()},
            **_CODECS,
        }
        exec(compile(source, filename, "exec"), namespace)
        return namespace["run"]

    # -- execution -----------------------------------------------------------
    def run(self, context: bytes = b"") -> ExecutionResult:
        """Execute the program with ``context`` as its input (r1)."""
        return self._run(self, context)
