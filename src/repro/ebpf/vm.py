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
built, into one Python function that owns the run: it sets up the stack
and context and returns the result; r0-r10 are its locals. The compiler
reads the :class:`~repro.ebpf.verifier.Facts` that ``require_verified``
returns, the join at each pc of what every verified path brings there:

* a register whose value is known is read as that value, and a dead
  write (``facts.dead``) is dropped, a load to its bounds check;
* an access through a known stack or context pointer, or through a
  pointer into the value the lookup at pc k returned, is a struct codec
  on ``stack`` (unchecked: the verifier bounds it), ``context`` or
  ``value<k>`` (both checked against their run-time length);
* a map lookup, update or delete whose fd and stack pointers are known
  runs inline, reading ``vm.maps`` itself (``map_by_fd`` only raises
  its fault); any other lookup is the helper, its value bound from the
  region table, so an access through it is a codec on ``value<k>`` too;
* a basic block (:func:`repro.ebpf.isa.leaders`) that one edge enters is
  nested where that edge leaves; only a block that several edges enter
  is tested, ``if pc == leader:``, in pc order (every jump goes forward).

A hot-path method that only forwards to a C callable is that callable,
bound at construction: ``BpfVm.run`` is the compiled function under
``partial``, an inline lookup calls ``HashMap.find`` (``dict.get``) and
the result is built by ``tuple.__new__``, with no ``__init__``.

A run builds the region table the helpers read (region 16 and up for the
map values they expose) only if the facts say some access goes through a
pointer they do not know, or some map helper is not inline; that access
looks its region up per run.
Either way the lookups number their values' regions from 16, per run.
The text comes from fixed templates and two closed expression tables;
only integers and register numbers from :class:`Instruction` fields and
the facts are interpolated. Each other helper is bound into the function
by id. ``tests/ebpf_reference.py`` keeps the former ``if``-chain
interpreter as the oracle the compiled code is tested against.

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

import collections
import hashlib
import heapq
import linecache
import os
import random
import struct
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.ebpf.helpers import (
    HELPER_MAP_DELETE, HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE, HELPERS,
)
from repro.ebpf.isa import (
    ALU_OPS, BLOCK_END_OPS, CONTEXT_POINTER, CONTEXT_REGION,
    Instruction, LOAD_OPS, MEM_SIZE, Opcode, Program, REGION_SHIFT, STACK_REGION,
    STACK_SIZE, STORE_REG_OPS, leaders,
)
from repro.ebpf.maps import HashMap
from repro.ebpf.verifier import Fact, Facts, require_verified

_U64 = (1 << 64) - 1
_OFFSET_MASK = (1 << REGION_SHIFT) - 1
_FIRST_DYNAMIC_REGION = 16
#: How deep single-entry blocks nest before one is tested by its pc.
_MAX_NESTING = 32
#: The argument registers a map helper reads: the fd, then stack pointers.
_MAP_ARGUMENTS = {HELPER_MAP_LOOKUP: 2, HELPER_MAP_UPDATE: 3, HELPER_MAP_DELETE: 2}

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


def _read(reg: int, state: Tuple[Fact, ...]) -> str:
    """Register *reg* as an operand: its value, when *state* knows it."""
    return f"{state[reg]:d}" if isinstance(state[reg], int) else f"r{reg:d}"


def _operands(insn: Instruction, state: Tuple[Fact, ...]) -> Dict[str, str]:
    """``{d}`` and ``{s}`` of *insn* for the expression tables."""
    source = (_read(insn.src, state) if insn.uses_reg_src
              else f"{insn.imm & _U64:d}")
    return {"d": _read(insn.dst, state), "s": source}


def _direct(fact: Fact, offset: int) -> Optional[Tuple[str, int, str, str]]:
    """``(buffer, start, end, address)`` of an access at *offset* from a
    pointer the *fact* knows: the stack, the context or ``value<k>``, the
    value the lookup at pc k returned (``base<k>`` its pointer); None for
    any other pointer, whose region the run looks up."""
    if isinstance(fact, int):
        pointer = (fact + offset) & _U64
        buffer = {STACK_REGION: "stack", CONTEXT_REGION: "context"}.get(
            pointer >> REGION_SHIFT)
        return None if buffer is None else (
            buffer, pointer & _OFFSET_MASK, "length", f"{pointer:#x}")
    if fact is None or fact[1] is None:
        return None
    lookup, start = fact[0], fact[1] + offset
    return (f"value{lookup:d}", start, f"len(value{lookup:d})",
            f"base{lookup:d} + {start:d}" if start else f"base{lookup:d}")


def _access(base: int, offset: int, size: int, access: str,
            fact: Fact) -> Tuple[List[str], str]:
    """The checks that ``[r{base} + offset]`` holds *size* bytes, or the
    access faults, and the ``buffer, start`` its codec then takes: none on
    the stack (the verifier bounds it), a length check on the context or a
    map value, a region lookup through any other pointer."""
    direct = _direct(fact, offset)
    if direct is not None:
        buffer, start, end, address = direct
        return ([] if buffer == "stack" else [
            f"if {start + size:d} > {end}:",
            f"    raise bounds({address}, {size:d}, '{access}')",
        ]), f"{buffer}, {start:d}"
    pointer = (f"{(fact + offset) & _U64:d}" if isinstance(fact, int)
               else f"(r{base:d} + {offset:d}) & 0xffffffffffffffff" if offset
               else f"r{base:d}")
    return [
        f"pointer = {pointer}",
        f"buffer = region_of(pointer >> {REGION_SHIFT:d})",
        f"start = pointer & {_OFFSET_MASK:#x}",
        f"if buffer is None or start + {size:d} > len(buffer):",
        f"    raise fault(vm, pointer, {size:d}, '{access}')",
    ], "buffer, start"


def _inline(helper_id: int, state: Tuple[Fact, ...]) -> bool:
    """Whether a CALL runs inline: a map helper whose fd and stack
    pointers the facts know."""
    if helper_id not in _MAP_ARGUMENTS:
        return False
    fd, *pointers = state[1:1 + _MAP_ARGUMENTS[helper_id]]
    return isinstance(fd, int) and all(
        isinstance(pointer, int) and pointer >> REGION_SHIFT == STACK_REGION
        for pointer in pointers)


def _looks_regions_up(program: Program, facts: Facts) -> bool:
    """Whether a run needs the region table: some access goes through a
    pointer the facts do not know, or some map helper is not inline."""
    for pc, state in facts.state.items():
        insn = program.at_slot(pc)
        if insn.opcode is Opcode.CALL and insn.imm in _MAP_ARGUMENTS:
            if not _inline(insn.imm, state):
                return True
        elif insn.is_load or insn.is_store:
            base = insn.src if insn.is_load else insn.dst
            if _direct(state[base], insn.offset) is None:
                return True
    return False


def _call(helper_id: int, pc: int, state: Tuple[Fact, ...],
          table: bool) -> List[str]:
    """A CALL of the helper bound as ``helper{id}``, or, faults included,
    a map helper inline. A lookup's value is ``value<pc>`` either way, its
    region the next the run numbers."""
    if not _inline(helper_id, state):
        args = ", ".join(_read(reg, state) for reg in range(1, 6))
        call = [f"r0 = helper{helper_id:d}(vm, [{args}]) & 0xffffffffffffffff"]
        return call + ([  # a lookup that is not inline needs the table
            f"base{pc:d} = r0",
            f"value{pc:d} = region_of(r0 >> {REGION_SHIFT:d})",
        ] if helper_id == HELPER_MAP_LOOKUP else [])
    fd, *pointers = state[1:1 + _MAP_ARGUMENTS[helper_id]]
    # The compiled code reads ``vm.maps`` itself; ``map_by_fd`` names the fault.
    call = [f"bpf_map = vm.maps.get({fd:d})",
            "if bpf_map is None:",
            f"    vm.map_by_fd({fd:d})  # raises"]
    for name, pointer in zip(("key", "value"), pointers):
        start = pointer & _OFFSET_MASK
        call += [
            f"size = bpf_map.{name}_size",
            f"if size > {STACK_SIZE - start:d}:",
            f"    raise bounds({pointer:#x}, size, 'read')",
            f"{name} = bytes(stack[{start:d}:{start:d} + size])",
        ]
    if helper_id == HELPER_MAP_UPDATE:
        return call + ["bpf_map.update(key, value)", "r0 = 0"]
    if helper_id == HELPER_MAP_DELETE:
        return call + ["r0 = 0 if bpf_map.delete(key) else 0xffffffffffffffff"]
    exposed = ([  # as expose_buffer does, for the helpers that read regions
        "    region = vm._next_region",
        "    vm._next_region = region + 1",
        f"    regions[region] = value{pc:d}",
    ] if table else ["    region = next_region", "    next_region = region + 1"])
    return call + [  # the key is key_size bytes: no check, no copy
        f"value{pc:d} = bpf_map.find(key)",
        f"if value{pc:d} is None:",
        "    r0 = 0",
        "else:",
        *exposed,
        f"    r0 = base{pc:d} = (region << {REGION_SHIFT:d}) & 0xffffffffffffffff",
    ]


def _statement(insn: Instruction, pc: int, facts: Facts, table: bool) -> List[str]:
    """The code of the straight-line instruction at *pc*: for a dead write
    (``facts.dead``), none, or a load's bounds check alone."""
    op, d, state = insn.opcode, f"r{insn.dst:d}", facts.state[pc]
    if op is Opcode.CALL:
        live = facts.live[pc + insn.slots]
        clobbered = "".join(f"r{reg:d} = " for reg in range(1, 6) if reg in live)
        call = _call(insn.imm, pc, state, table)
        return call + [clobbered + "0"] if clobbered else call
    if op in LOAD_OPS:
        checks, args = _access(insn.src, insn.offset, MEM_SIZE[op], "read",
                               state[insn.src])
        return checks + ([] if pc in facts.dead else
                         [f"{d}, = load{MEM_SIZE[op]:d}({args})"])
    if pc in facts.dead:  # an ALU op or LDDW
        return []
    if op in ALU_OPS:
        return [f"{d} = " + _ALU_EXPR[op].format(**_operands(insn, state))]
    if op is Opcode.LDDW:
        return [f"{d} = {insn.imm & _U64:d}"]
    # A store: the verifier admits no other opcode.
    size = MEM_SIZE[op]
    mask = (1 << (8 * size)) - 1
    value = (f"{_read(insn.src, state)} & {mask:#x}" if op in STORE_REG_OPS
             else f"{insn.imm & mask:d}")
    checks, args = _access(insn.dst, insn.offset, size, "write", state[insn.dst])
    return checks + [f"store{size:d}({args}, {value})"]


def _entries(facts: Facts) -> Dict[int, int]:
    """How many edges a run can take into each pc."""
    return collections.Counter(
        target for targets in facts.successors.values() for target in targets)


class _Emitter:
    """The blocks of one program, nested: a block that one edge enters is
    emitted where that edge leaves; any other is a root, tested by pc."""

    def __init__(self, program: Program, facts: Facts, table: bool):
        self.program, self.facts, self.table = program, facts, table
        starts = leaders(program)
        self.ends = dict(zip(starts, starts[1:] + [len(program)]))
        self.entries = _entries(facts)
        self.roots, self.placed = [0], {0}

    def goto(self, target: int, depth: int, counts: Tuple[int, int],
             counted: bool) -> List[str]:
        """Go on at the block *target*: the block itself, the first time
        and if one edge enters it, else a jump to the root it is."""
        if target not in self.placed:
            self.placed.add(target)
            if self.entries[target] == 1 and depth < _MAX_NESTING:
                return self.block(target, depth + 1, counts, counted)
            heapq.heappush(self.roots, target)
        executed, calls = counts
        return [f"executed += {executed:d}"] + (
            [f"calls += {calls:d}"] if calls else []) + [f"pc = {target:d}"]

    def block(self, pc: int, depth: int, counts: Tuple[int, int],
              counted: bool) -> List[str]:
        """The block at *pc* and what it reaches; *counts* are the
        instructions and calls run since ``executed`` and ``calls`` were
        last added to, which a root other than pc 0 has (*counted*)."""
        executed, calls = counts
        end, lines = self.ends[pc], []
        while True:
            insn, state = self.program.at_slot(pc), self.facts.state[pc]
            executed, after = executed + 1, pc + insn.slots
            if insn.opcode in BLOCK_END_OPS:
                break
            lines += _statement(insn, pc, self.facts, self.table)
            calls += insn.opcode is Opcode.CALL
            if after == end:  # no jump: the next block
                return lines + self.goto(after, depth, (executed, calls), counted)
            pc = after
        op, counts = insn.opcode, (executed, calls)
        if op is Opcode.EXIT:
            total = "executed + {:d}, calls + {:d}" if counted else "{:d}, {:d}"
            return lines + [f"return result(({_read(0, state)}, "
                            f"{total.format(executed, calls)}, context))"]
        if op is Opcode.JA:
            return lines + self.goto(after + insn.offset, depth, counts, counted)
        taken = self.goto(after + insn.offset, depth, counts, counted)
        fallthrough = self.goto(after, depth, counts, counted)
        return lines + [f"if {_TAKEN_EXPR[op].format(**_operands(insn, state))}:",
                        *("    " + line for line in taken), "else:",
                        *("    " + line for line in fallthrough)]

    def body(self) -> List[str]:
        """pc 0's tree, then every other root in pc order, tested by pc:
        the roots start ``pc`` and the counters they add to."""
        lines = self.block(heapq.heappop(self.roots), 0, (0, 0), False)
        if self.roots:
            lines.insert(0, "pc = executed = calls = 0")
        while self.roots:
            root = heapq.heappop(self.roots)
            code = self.block(root, 0, (0, 0), True)
            lines += [f"if pc == {root:d}:"] + ["    " + line for line in code]
        return lines


def _source(program: Program) -> str:
    """The text of *program*'s ``run`` function; raises
    :class:`VerificationError` for a program the verifier rejects."""
    facts = require_verified(program)
    table = _looks_regions_up(program, facts)
    lines = [  # The run's set-up: regions 1 and 2 for the helpers and the code.
        "def run(vm, context=b''):",
        "    context = bytearray(context)",
        "    length = len(context)",
        f"    stack = bytearray({STACK_SIZE:d})",
        *([
            "    regions = vm._regions",
            "    regions.clear()",
            f"    regions[{STACK_REGION:d}] = stack",
            f"    regions[{CONTEXT_REGION:d}] = context",
            f"    vm._next_region = {_FIRST_DYNAMIC_REGION:d}",
            "    region_of = regions.get",
        ] if table else [f"    next_region = {_FIRST_DYNAMIC_REGION:d}"]),
    ]
    entry = {1: f"{CONTEXT_POINTER:d}", 2: "length"}
    lines += [f"    r{reg:d} = {entry.get(reg, '0')}" for reg in sorted(facts.live[0])]
    body = _Emitter(program, facts, table).body()
    return "\n".join(lines + ["    " + line for line in body]) + "\n"


def _out_of_bounds(pointer: int, size: int, access: str) -> ProtocolError:
    """The error for an access past the end of a live region."""
    return ProtocolError(f"out-of-bounds {access} at {pointer:#x} ({size} bytes)")


class ExecutionResult(NamedTuple):
    """Outcome of one program run."""

    return_value: int
    instructions_executed: int
    helper_calls: int
    context: bytearray


class BpfVm:
    """An execution environment bound to a verified program and its maps."""

    def __init__(self, program: Program,
                 maps: Optional[Dict[int, HashMap]] = None):
        self.program = program
        self.maps = maps if maps is not None else {}
        self.rng = random.Random(0)
        self.trace_log: List[tuple] = []
        self._clock_ns = 0
        # One dict for the VM's life, refilled per run.
        self._regions: Dict[int, bytearray] = {}
        self._next_region = _FIRST_DYNAMIC_REGION
        #: ``run(context=b"")``, the compiled function bound to this VM.
        self.run = partial(self._compile(), self)  # verifies first

    # -- environment hooks ---------------------------------------------------
    def map_by_fd(self, fd: int) -> HashMap:
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
        return _out_of_bounds(pointer, size, access)

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
            "bounds": _out_of_bounds,
            "result": partial(tuple.__new__, ExecutionResult),
            **{f"helper{helper_id:d}": helper for helper_id, helper in HELPERS.items()},
            **_CODECS,
        }
        exec(compile(source, filename, "exec"), namespace)
        return namespace["run"]
