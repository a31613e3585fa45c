"""Differential tests: the compiled ``BpfVm`` against the reference oracle.

``BpfVm`` verifies a program and compiles it into one Python function
once; ``ReferenceVm`` (``tests/ebpf_reference.py``) is the former
``if``-chain interpreter, behind the same verification. Every program
here runs on both, each with its own copy of the maps, and must produce
the same result object or the same named error, and leave the same map
contents and ``trace_log`` behind; a program the verifier rejects is
refused by both at construction, naming the pc.
"""

import dataclasses
import functools
import itertools
import linecache
import os
import re
import struct
import traceback

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.ebpf.verifier as verifier_module
import repro.ebpf.vm as vm_module
from repro.apps.fail2ban import build_fail2ban_program
from repro.common.errors import ProtocolError, ReproError, VerificationError
from repro.ebpf import BpfVm, HashMap, Verifier, assemble
from repro.ebpf.helpers import (
    HELPER_GET_PRANDOM_U32,
    HELPER_KTIME_GET_NS,
    HELPER_MAP_DELETE,
    HELPER_MAP_LOOKUP,
    HELPER_MAP_UPDATE,
    HELPER_TRACE_PRINTK,
)
from repro.ebpf.isa import (
    ALU_OPS,
    COND_JUMPS,
    Instruction,
    LOAD_OPS,
    MEM_SIZE,
    Opcode,
    Program,
    STACK_SIZE,
    STORE_IMM_OPS,
    STORE_REG_OPS,
)
from repro.eval.compiler import program_corpus
from repro.hdl import compile_program
from tests.ebpf_reference import ReferenceVm
from tests.facts_reference import check_facts

U64 = (1 << 64) - 1
HASH_FD, MISSING_FD = 1, 3
EMPTY_FD = 0  # lookups there miss until an update fills it
CTX_REG = 9  # holds the context pointer: r1 is clobbered by the first CALL

# Sorted so a draw does not depend on set order (PYTHONHASHSEED).
ALU = sorted(ALU_OPS, key=lambda op: op.value)
JUMPS = sorted(COND_JUMPS, key=lambda op: op.value)
LOADS = sorted(LOAD_OPS, key=lambda op: op.value)
STORES_REG = sorted(STORE_REG_OPS, key=lambda op: op.value)
STORES_IMM = sorted(STORE_IMM_OPS, key=lambda op: op.value)
LOADS_BY_SIZE = {MEM_SIZE[op]: op for op in LOADS}
STORES_REG_BY_SIZE = {MEM_SIZE[op]: op for op in STORES_REG}
STORES_IMM_BY_SIZE = {MEM_SIZE[op]: op for op in STORES_IMM}


def fresh_maps():
    """A small hash, so "map full" is reachable, and an empty one."""
    hash_map = HashMap(8, 8, max_entries=3)
    hash_map.update(bytes(8), (7).to_bytes(8, "little"))
    return {HASH_FD: hash_map, EMPTY_FD: HashMap(8, 8, max_entries=3)}


def observe(vm_class, program, contexts):
    """Everything a caller can see of running *program* on each context."""
    maps = fresh_maps()
    vm = vm_class(program, maps=maps)
    outcomes = []
    for context in contexts:
        try:
            result = vm.run(context)
        except ReproError as error:
            outcomes.append((type(error).__name__, str(error)))
        else:
            outcomes.append((
                result.return_value,
                result.instructions_executed,
                result.helper_calls,
                bytes(result.context),
            ))
    return (
        outcomes,
        {fd: list(bpf_map.items()) for fd, bpf_map in maps.items()},
        vm.trace_log,
    )


def assert_same(program, contexts=(b"",)):
    expected = observe(ReferenceVm, program, contexts)
    assert observe(BpfVm, program, contexts) == expected
    return expected


def refused(program):
    """The reason both VMs give for refusing *program* at construction."""
    messages = []
    for vm_class in (BpfVm, ReferenceVm):
        with pytest.raises(VerificationError) as caught:
            vm_class(program)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    return messages[0]


# -- exhaustive operator grid -------------------------------------------------

EDGE_VALUES = [0, 1, 2, 63, 64, 65, (1 << 31) - 1, 1 << 31, (1 << 32) - 1,
               1 << 32, (1 << 63) - 1, 1 << 63, U64 - 1, U64]
EDGE_IMMS = [0, 1, 7, 63, 64, -1, -8, (1 << 31) - 1, -(1 << 31)]


def operands(dst, src=0):
    """A context holding *dst* and *src* as two u64s, loaded by the grid."""
    return dst.to_bytes(8, "little") + src.to_bytes(8, "little")


#: Every (dst, src) edge pair, and every dst edge value, as contexts: one VM
#: per program form runs them all (building a VM compiles its program).
EDGE_PAIRS = [operands(dst, src)
              for dst, src in itertools.product(EDGE_VALUES, EDGE_VALUES)]
EDGE_DSTS = [operands(dst) for dst in EDGE_VALUES]


def load_operands(dst, src):
    """Registers *dst* and *src* from the two u64s of the context."""
    return [
        Instruction(Opcode.LDXDW, dst=dst, src=1, offset=0),
        Instruction(Opcode.LDXDW, dst=src, src=1, offset=8),
    ]


def test_lddw_loads_every_edge_value():
    for value in EDGE_VALUES:
        (outcome,), *_ = assert_same(Program([
            Instruction(Opcode.LDDW, dst=0, imm=value),
            Instruction(Opcode.EXIT),
        ]))
        assert outcome[0] == value


@pytest.mark.parametrize("op", ALU, ids=lambda op: op.value)
def test_every_alu_op_matches_the_oracle(op):
    assert_same(Program([
        *load_operands(0, 3),
        Instruction(op, dst=0, src=3, uses_reg_src=True),
        Instruction(Opcode.EXIT),
    ]), EDGE_PAIRS)
    for imm in EDGE_IMMS:
        program = Program([
            *load_operands(0, 3),
            Instruction(op, dst=0, imm=imm),
            Instruction(Opcode.EXIT),
        ])
        if op in (Opcode.DIV, Opcode.MOD) and imm == 0:
            assert refused(program).endswith("pc 2: division by zero immediate")
        else:
            assert_same(program, EDGE_DSTS)


@pytest.mark.parametrize("op", JUMPS, ids=lambda op: op.value)
def test_every_branch_kind_matches_the_oracle(op):
    def check(compare, contexts):
        assert_same(Program([
            *load_operands(3, 4),
            Instruction(Opcode.MOV, dst=0, imm=1),
            compare,
            Instruction(Opcode.MOV, dst=0, imm=2),
            Instruction(Opcode.EXIT),
        ]), contexts)

    check(Instruction(op, dst=3, src=4, offset=1, uses_reg_src=True), EDGE_PAIRS)
    for imm in EDGE_IMMS:
        check(Instruction(op, dst=3, imm=imm, offset=1), EDGE_DSTS)


def _stack_pointer(reg, offset):
    return [
        Instruction(Opcode.MOV, dst=reg, src=10, uses_reg_src=True),
        Instruction(Opcode.ADD, dst=reg, imm=offset),
    ]


def _lookup_hit():
    """r0 = pointer to the 8-byte value of the all-zero key (always present)."""
    return [
        Instruction(Opcode.STDW, dst=10, offset=-8, imm=0),
        Instruction(Opcode.MOV, dst=1, imm=HASH_FD),
        *_stack_pointer(2, -8),
        Instruction(Opcode.CALL, imm=HELPER_MAP_LOOKUP),
    ]


@pytest.mark.parametrize("size_index", range(4), ids=["b", "h", "w", "dw"])
def test_every_access_size_at_both_edges_of_every_region(size_index):
    """Stack (512 B below r10), context (8 B at r9) and a map value (8 B at
    r0): each load/store form from one byte before the region to one byte
    past it. The verifier refuses every stack access outside the frame and
    every access below a region's start, naming the pc; an access past the
    end of the context or the map value faults at run time."""
    size = 1 << size_index
    context = bytes(range(0xA0, 0xA8))
    load, store_reg, store_imm = (
        table[size] for table in (LOADS_BY_SIZE, STORES_REG_BY_SIZE, STORES_IMM_BY_SIZE)
    )
    accesses = [
        lambda base, offset: Instruction(load, dst=6, src=base, offset=offset),
        lambda base, offset: Instruction(store_reg, dst=base, src=7, offset=offset),
        lambda base, offset: Instruction(store_imm, dst=base, offset=offset, imm=-2),
    ]
    regions = [(10, -512, 0), (CTX_REG, 0, 8), (0, 0, 8)]
    head = [
        Instruction(Opcode.MOV, dst=CTX_REG, src=1, uses_reg_src=True),
        Instruction(Opcode.MOV, dst=6, imm=0),
        Instruction(Opcode.LDDW, dst=7, imm=0x1122334455667788),
        *_lookup_hit(),
        Instruction(Opcode.JEQ, dst=0, imm=0, offset=3),  # the key is present
    ]
    access_pc = sum(insn.slots for insn in head)
    for access, (base, low, high) in itertools.product(accesses, regions):
        offsets = [*range(low - 2, low + 2), *range(high - size - 1, high + 2)]
        for offset in offsets:
            program = Program([
                *head,
                access(base, offset),
                # Read back what a store left around the accessed bytes.
                Instruction(Opcode.LDXDW, dst=0, src=CTX_REG, offset=0),
                Instruction(Opcode.ADD, dst=0, src=6, uses_reg_src=True),
                Instruction(Opcode.EXIT),
            ])
            if offset < low or (base == 10 and offset + size > high):
                assert f"rejected: pc {access_pc}: " in refused(program)
            else:
                assert_same(program, [context])


def test_call_clobbers_r1_to_r5_and_nothing_else():
    """r6-r9 survive a call. The verifier refuses a read of r1-r5 after
    one; the next helper call still sees the zeros the clobber left."""
    for reg in range(1, 10):
        head = [
            Instruction(Opcode.MOV, dst=reg, imm=77),
            Instruction(Opcode.CALL, imm=HELPER_KTIME_GET_NS),
        ]
        read = Program([
            *head,
            Instruction(Opcode.MOV, dst=0, src=reg, uses_reg_src=True),
            Instruction(Opcode.EXIT),
        ])
        if reg > 5:
            (outcome,), *_ = assert_same(read)
            assert outcome[0] == 77
            continue
        assert refused(read).endswith(
            f"pc 2: read of uninitialized register r{reg}")
        _, _, trace_log = assert_same(Program([
            *head,
            Instruction(Opcode.CALL, imm=HELPER_TRACE_PRINTK),
            Instruction(Opcode.EXIT),
        ]))
        assert trace_log == [(0, 0, 0, 0, 0)]


# -- generated programs -------------------------------------------------------
#
# Every drawn program verifies. A body element is straight-line code that a
# forward branch skips whole, and leaves the registers as the prelude set
# them: r0 and r6-r8 scalars, r9 the context pointer, r10 the frame pointer.
# r1-r5 are scratch: an element reads one only after writing it, except
# that a helper call passes whatever they hold (the verifier types only a
# map helper's fd in r1, key pointer in r2 and an update's value in r3).

SCALARS = [0, 6, 7, 8]
SCRATCH = [1, 2, 3, 4, 5]

_scalar = st.sampled_from(SCALARS)
_imm32 = st.one_of(
    st.sampled_from(EDGE_IMMS),
    st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
)
_imm64 = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, U64))


def _shifted(reg, base, shift, subtract):
    """``reg = base + shift``, by an ADD or a SUB of the immediate."""
    return [
        Instruction(Opcode.MOV, dst=reg, src=base, uses_reg_src=True),
        Instruction(Opcode.SUB, dst=reg, imm=-shift) if subtract
        else Instruction(Opcode.ADD, dst=reg, imm=shift),
    ]


@st.composite
def _below(draw, fits, most):
    """An offset from 0: in 3 of 4 draws at most *fits* (in bounds), else
    up to *most* (often past the end)."""
    inside = draw(st.integers(min_value=0, max_value=3))
    return draw(st.integers(min_value=0, max_value=max(fits, 0) if inside else most))


@st.composite
def _memory_operand(draw, size, context_size):
    """(set-up, base, offset) of a *size*-byte access through r10 or r9, or
    a copy of either shifted by an immediate: on the stack inside the
    frame, often at either end of it, or on the context from its start to
    past its end; or through a register a branch points at one or the
    other, which the run looks up."""
    kind = draw(st.sampled_from(["stack"] * 4 + ["context"] * 3 + ["either"] * 2))
    if kind == "either":
        reg = draw(st.sampled_from(SCRATCH))
        pointer = _shifted(reg, CTX_REG, draw(st.sampled_from([0, 4])), False)
        return _either(draw, reg, pointer), reg, draw(st.integers(0, 24 - size))
    if kind == "stack":
        base, shift = 10, draw(st.sampled_from([-16, -8, 8, -STACK_SIZE]))
        effective = draw(st.one_of(
            st.integers(min_value=-STACK_SIZE, max_value=-size),
            st.sampled_from([-STACK_SIZE, -STACK_SIZE + 1, -size - 1, -size]),
        ))
    else:
        base, shift = CTX_REG, draw(st.sampled_from([1, 4]))
        effective = draw(_below(context_size - size, context_size + 4))
    if draw(st.booleans()):
        return [], base, effective
    reg = draw(st.sampled_from(SCRATCH))
    return _shifted(reg, base, shift, draw(st.booleans())), reg, effective - shift


@st.composite
def _access(draw, base_and_offset, kinds=("load", "store_reg", "store_imm"),
            loaded=SCALARS):
    """A load into a register of *loaded*, or a store of a register or an
    immediate, of a drawn size at the (set-up, base, offset) that
    *base_and_offset* draws for that size."""
    kind = draw(st.sampled_from(kinds))
    op = draw(st.sampled_from({"load": LOADS, "store_reg": STORES_REG,
                               "store_imm": STORES_IMM}[kind]))
    setup, base, offset = draw(base_and_offset(MEM_SIZE[op]))
    if kind == "load":
        dst = draw(st.sampled_from(loaded))
        return setup + [Instruction(op, dst=dst, src=base, offset=offset)]
    if kind == "store_reg":
        src = draw(st.sampled_from(SCALARS + [CTX_REG, 10]))
        return setup + [Instruction(op, dst=base, src=src, offset=offset)]
    return setup + [Instruction(op, dst=base, offset=offset, imm=draw(_imm32))]


def _either(draw, reg, pointer):
    """*reg* = a pointer the branch drawn here leaves as *pointer* set it,
    or as it then sets it to 24 bytes below r10."""
    branch = Instruction(draw(st.sampled_from(JUMPS)), dst=draw(_scalar),
                         imm=draw(_imm32), offset=2)
    return [*pointer, branch, *_stack_pointer(reg, -24)]


@st.composite
def _at_map_value(draw, size):
    """(set-up, base, offset) of an access near the end of the 8-byte map
    value: through r0, through a copy of it in r1-r5 shifted by an
    immediate, or through a copy that a branch may point at the stack."""
    offset = draw(_below(8 - size, 10))
    kind = draw(st.sampled_from(["r0", "copy", "either"]))
    reg = draw(st.sampled_from(SCRATCH))
    if kind == "r0":
        return [], 0, offset
    if kind == "either":
        return _either(draw, reg, _shifted(reg, 0, 0, False)), reg, offset
    shift = draw(st.sampled_from([0, 2, 8, -4]))
    return _shifted(reg, 0, shift, draw(st.booleans())), reg, offset - shift


_fd = st.sampled_from([HASH_FD] * 8 + [EMPTY_FD, MISSING_FD])


def _key_pointer(draw):
    """r2 = a key on the stack: at a slot the stores above may have filled,
    or, in 1 of 4 draws, past the stack's end by one byte (-7) or more."""
    return _stack_pointer(2, draw(st.sampled_from([-8, -16, -24] * 3 + [-7, -4, 0])))


@st.composite
def _lookup(draw):
    """A map lookup and, on a hit, an access near the value's 8-byte end,
    then its first word in r0. In 1 of 4 draws the facts do not know the
    fd (an OR forgets it), and in 1 of 4 the key is on the context or at a
    register offset on the stack, so the lookup is not inline."""
    setup = [Instruction(Opcode.MOV, dst=1, imm=draw(_fd))]
    if draw(st.integers(0, 3)) == 0:
        setup.append(Instruction(Opcode.OR, dst=1, imm=0))
    key = draw(st.sampled_from(["stack"] * 6 + ["context", "register"]))
    if key == "stack":
        setup += _key_pointer(draw)
    elif key == "context":
        setup.append(Instruction(Opcode.MOV, dst=2, src=CTX_REG, uses_reg_src=True))
    else:
        setup += [Instruction(Opcode.MOV, dst=3, imm=draw(st.sampled_from([-8, -16]))),
                  Instruction(Opcode.MOV, dst=2, src=10, uses_reg_src=True),
                  Instruction(Opcode.ADD, dst=2, src=3, uses_reg_src=True)]
    # Loaded into r6-r8: r0 stays the value pointer.
    hit = draw(_access(_at_map_value, loaded=SCALARS[1:])) + [
        Instruction(Opcode.LDXDW, dst=0, src=0, offset=0)]
    return setup + [
        Instruction(Opcode.CALL, imm=HELPER_MAP_LOOKUP),
        Instruction(Opcode.JEQ, dst=0, imm=0, offset=sum(i.slots for i in hit)),
        *hit,
    ]


@st.composite
def _call(draw):
    """A call with its argument set-up: a lookup, an update or a delete on
    the stack key, or a helper that reads r1-r5 as they stand. Half the
    calls but a lookup set r1 to an fd and are followed by a trace that
    logs r1-r5 as the call clobbered them."""
    helper = draw(st.sampled_from([
        HELPER_MAP_LOOKUP, HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE,
        HELPER_MAP_UPDATE, HELPER_MAP_DELETE, HELPER_KTIME_GET_NS,
        HELPER_TRACE_PRINTK, HELPER_GET_PRANDOM_U32,
    ]))
    if helper == HELPER_MAP_LOOKUP:
        return draw(_lookup())
    setup, follow = [], draw(st.booleans())
    if follow or helper in (HELPER_MAP_UPDATE, HELPER_MAP_DELETE):
        setup.append(Instruction(Opcode.MOV, dst=1, imm=draw(_fd)))
    if helper in (HELPER_MAP_UPDATE, HELPER_MAP_DELETE):
        setup += _key_pointer(draw)
    if helper == HELPER_MAP_UPDATE:
        setup += _stack_pointer(3, draw(st.sampled_from([-16, -32, -8, -4])))
        setup.append(Instruction(Opcode.MOV, dst=4, imm=0))
    call = setup + [Instruction(Opcode.CALL, imm=helper)]
    trace = Instruction(Opcode.CALL, imm=HELPER_TRACE_PRINTK)
    return call + [trace] if follow else call


@st.composite
def _element(draw, context_size):
    """One body element: a list of instructions, or a pending forward
    branch and the number of whole elements it skips."""
    kind = draw(st.sampled_from(
        ["alu"] * 4 + ["load"] * 3 + ["store"] * 3 + ["branch"] * 3
        + ["lddw", "call", "call", "ja"]
    ))
    if kind == "alu":
        op = draw(st.sampled_from(ALU))
        nonzero = _imm32.filter(lambda imm: imm or op not in (Opcode.DIV, Opcode.MOD))
        return [Instruction(
            op, dst=draw(_scalar), src=draw(_scalar), imm=draw(nonzero),
            uses_reg_src=draw(st.booleans()),
        )]
    if kind == "lddw":
        return [Instruction(Opcode.LDDW, dst=draw(_scalar), imm=draw(_imm64))]
    if kind in ("load", "store"):
        operand = functools.partial(_memory_operand, context_size=context_size)
        kinds = ("load",) if kind == "load" else ("store_reg", "store_imm")
        return draw(_access(operand, kinds))
    if kind == "call":
        return draw(_call())
    if kind == "ja":
        return Instruction(Opcode.JA), draw(st.integers(0, 4))
    compared = st.sampled_from(SCALARS + [CTX_REG, 10])
    branch = Instruction(
        draw(st.sampled_from(JUMPS)), dst=draw(compared), src=draw(compared),
        imm=draw(_imm32), uses_reg_src=draw(st.booleans()),
    )
    return branch, draw(st.integers(0, 4))


@st.composite
def verified_program(draw, context_size):
    """ALU, LDDW, memory, forward branches and helper calls that the
    verifier accepts: every branch skips whole elements, clamped to the
    final EXIT."""
    prelude = [Instruction(Opcode.MOV, dst=CTX_REG, src=1, uses_reg_src=True)]
    for reg in (0, 3, 4, 5, 6, 7, 8):
        prelude.append(Instruction(Opcode.LDDW, dst=reg, imm=draw(_imm64)))
    if draw(st.booleans()):  # r1 is the context in the pc-0 block
        load = draw(st.sampled_from(LOADS))
        prelude.append(Instruction(
            load, dst=draw(_scalar), src=1,
            offset=draw(_below(context_size - MEM_SIZE[load], context_size + 1)),
        ))
    # Half the programs start with a lookup, reached before any fault.
    body = [draw(_lookup())] if draw(st.booleans()) else []
    body += draw(st.lists(_element(context_size), min_size=1, max_size=14))
    slots = [sum(insn.slots for insn in element) if isinstance(element, list) else 1
             for element in body]
    instructions = list(prelude)
    for index, element in enumerate(body):
        if isinstance(element, list):
            instructions += element
            continue
        branch, skip = element
        offset = sum(slots[index + 1 : index + 1 + skip])
        instructions.append(dataclasses.replace(branch, offset=offset))
    instructions.append(Instruction(Opcode.EXIT))
    return Program(instructions, name="generated")


@st.composite
def verified_case(draw):
    context_size = draw(st.sampled_from([0, 1, 5, 8, 16, 16, 32, 32]))
    program = draw(verified_program(context_size))
    contexts = [draw(st.binary(min_size=context_size, max_size=context_size))
                for _ in range(2)]
    return program, contexts


# No shrink phase: a compiler defect that fails one draw in ten reports
# the drawn case within seconds instead of shrinking it for minutes.
@settings(max_examples=400, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=verified_case())
def test_translated_vm_matches_the_reference(case):
    """Every drawn program verifies. Two runs on one VM pair: the second
    sees the first's map state and must not see its registers, regions or
    counters. The facts the VM compiled from hold on both runs
    (``tests/facts_reference.py``)."""
    program, contexts = case
    report = Verifier().verify(program)
    assert report.ok, report.reject_reason()
    assert_same(program, contexts)
    check_facts(program, contexts, fresh_maps())


def test_generator_draws_from_every_operator():
    assert set(ALU) == ALU_OPS and len(ALU) == 13
    assert set(JUMPS) == COND_JUMPS and len(JUMPS) == 11
    assert len(LOADS) == len(STORES_REG) == len(STORES_IMM) == 4


# -- pinned counts ------------------------------------------------------------

CORPUS_COUNTS = {
    "const": (2, 0),
    "checksum16": (8, 0),
    "classifier": (6, 0),
    "parallel-sum": (9, 0),
    "unrolled-consts": (12, 0),
}


@pytest.mark.parametrize("name", sorted(CORPUS_COUNTS))
def test_corpus_program_counts_are_pinned(name):
    """(instructions_executed, helper_calls) of the E10 corpus: a skipped or
    double-counted slot fails here by program name."""
    program = {entry[0]: entry[1] for entry in program_corpus()}[name]
    context = (443).to_bytes(4, "little") + bytes(28)
    result = BpfVm(program).run(context)
    assert (result.instructions_executed, result.helper_calls) == CORPUS_COUNTS[name]
    assert_same(program, [context])


# -- refused programs and run-time faults -------------------------------------


def fault(program, maps=None):
    """The error both VMs raise running *program*."""
    messages = []
    for vm_class in (BpfVm, ReferenceVm):
        with pytest.raises(ProtocolError) as caught:
            vm_class(program, maps=maps).run()
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestFaultEdges:
    def test_jump_past_the_end(self):
        assert refused(assemble("mov r0, 1\nja +5\nexit")) == (
            "program 'prog' rejected: pc 1: jump target 7 out of range")

    def test_jump_before_the_start(self):
        program = Program([Instruction(Opcode.JA, offset=-4), Instruction(Opcode.EXIT)])
        assert refused(program) == (
            "program 'prog' rejected: pc 0: jump target -3 out of range")

    def test_falling_off_the_end(self):
        assert refused(assemble("mov r0, 1")).endswith(
            "pc 0: program can fall off the end")
        assert refused(assemble("lddw r0, 5")).endswith(
            "pc 1: program can fall off the end")
        assert refused(Program([])).endswith("pc 0: empty program")

    def test_jump_into_the_second_lddw_slot(self):
        program = assemble("ja +1\nlddw r0, 0x1122334455667788\nexit")
        assert refused(program).endswith("pc 0: jump into the middle of LDDW")

    def test_a_backward_jump_in_dead_code_verifies_and_never_runs(self):
        """The verifier rejects only the back-edges a run can reach, and the
        compiled blocks, tested once each in pc order, never take one."""
        (outcome,), *_ = assert_same(assemble("mov r0, 1\nexit\nja -3\nexit"))
        assert outcome[:2] == (1, 2)

    def test_an_unknown_helper_is_refused_even_unreached(self):
        program = assemble("mov r0, 1\nexit\ncall 99\nexit")
        assert refused(program).endswith("pc 2: call to unknown helper 99")

    def test_an_unknown_opcode_is_refused_even_unreached(self):
        bogus = Instruction("bogus")  # the dataclass does not police its opcode
        program = Program([Instruction(Opcode.MOV, imm=0), Instruction(Opcode.EXIT),
                           bogus, Instruction(Opcode.EXIT)])
        assert refused(program).endswith("pc 2: unknown opcode 'bogus'")

    def test_memory_faults_are_named(self):
        """What the verifier cannot bound: the context's end, a map value's
        end, and a key a helper reads past the context's end."""
        assert fault(assemble("ldxw r0, [r1+2]\nexit")) == (
            "out-of-bounds read at 0x2000000000002 (4 bytes)")
        write_past_value = Program([
            *_lookup_hit(),
            Instruction(Opcode.JEQ, dst=0, imm=0, offset=1),
            Instruction(Opcode.STW, dst=0, offset=6, imm=1),
            Instruction(Opcode.EXIT),
        ])
        assert fault(write_past_value, fresh_maps()) == (
            "out-of-bounds write at 0x10000000000006 (4 bytes)")
        key_past_the_context = assemble(
            f"mov r2, r1\nadd r2, 2\nmov r1, {HASH_FD}\ncall {HELPER_MAP_LOOKUP}\nexit")
        assert fault(key_past_the_context, fresh_maps()) == (
            "out-of-bounds read at 0x2000000000002 (8 bytes)")


class TestLateBinding:
    def test_each_run_returns_its_own_context_buffer(self):
        vm = BpfVm(assemble("ldxb r0, [r1+0]\nadd r0, 1\nstxb [r1+0], r0\nexit"))
        first = vm.run(b"\x01")
        second = vm.run(b"\x10")
        assert (bytes(first.context), bytes(second.context)) == (b"\x02", b"\x11")

    def test_regions_are_rebuilt_for_every_run(self):
        """Each run that looks the value up exposes it as region 16 again:
        region numbering restarts per run."""
        program = Program([
            Instruction(Opcode.LDXB, dst=6, src=1, offset=0),
            Instruction(Opcode.MOV, dst=0, imm=0),
            Instruction(Opcode.JEQ, dst=6, imm=0, offset=len(_lookup_hit())),
            *_lookup_hit(),
            Instruction(Opcode.EXIT),
        ])
        outcomes, *_ = assert_same(program, [b"\x01", b"\x00", b"\x01"])
        assert [outcome[0] for outcome in outcomes] == [16 << 48, 0, 16 << 48]

    def test_a_map_added_to_the_callers_empty_dict_is_seen(self):
        maps = {}
        vm = BpfVm(Program(_lookup_hit() + [Instruction(Opcode.EXIT)]), maps=maps)
        assert vm.maps is maps
        maps.update(fresh_maps())
        assert vm.run().return_value == 16 << 48


# -- mutants of the compiler's rules ------------------------------------------
#
# The compiler reads the verifier's facts (``verifier._facts``: what each
# instruction makes known, ``_after``; what two paths agree on, ``_join``;
# which registers an instruction reads, ``_reads``) and from them resolves
# accesses (``vm._access``), inlines map helpers (``vm._call``) and nests
# single-entry blocks (``vm._entries``). Each mutant below breaks one rule;
# the oracle must catch it on a pinned program that the real rules compile
# correctly: by a different outcome, or by an exception it does not raise.

real_after, real_join, real_reads = (
    verifier_module._after, verifier_module._join, verifier_module._reads)
real_call, real_access, real_entries = (
    vm_module._call, vm_module._access, vm_module._entries)


def constant_kept_across_a_call(pc, insn, state):
    edges = real_after(pc, insn, state)
    if insn.opcode is Opcode.CALL:
        for _, regs in edges:
            regs[1:6] = state[1:6]
    return edges


def key_bound_off_by_one(*args):
    return [re.sub(r"if size > (\d+):", lambda m: f"if size > {int(m[1]) + 1}:",
                   line) for line in real_call(*args)]


def fact_kept_where_one_path_lacks_it(a, b):
    return b if a is None else a if b is None else real_join(a, b)


def value_length_unchecked(*args):
    checks, codec = real_access(*args)
    return ([] if codec.startswith("value") else checks), codec


def jump_operands_unread(insn, state):
    return set() if insn.opcode in COND_JUMPS else real_reads(insn, state)


def one_entry_per_block(facts):
    return {target: 1 for target in real_entries(facts)}


#: name -> (module, rule, mutant, program, contexts)
MUTANTS = {
    # After a call r1 is 0: the trace shows it.
    "constant kept across a CALL": (verifier_module, "_after",
                                    constant_kept_across_a_call, assemble(
        f"mov r1, 77\ncall {HELPER_KTIME_GET_NS}\ncall {HELPER_TRACE_PRINTK}\n"
        "mov r0, 0\nexit"), [b""]),
    # An 8-byte key one byte short of the stack's end.
    "key bound off by one": (vm_module, "_call", key_bound_off_by_one, assemble(
        f"mov r1, {HASH_FD}\nmov r2, r10\nadd r2, -7\ncall {HELPER_MAP_LOOKUP}\nexit"
    ), [b""]),
    # r6 is 5 on one path into pc 3 and the loaded byte on the other.
    "fact kept at a join that one path lacks": (
        verifier_module, "_join", fact_kept_where_one_path_lacks_it, assemble(
            "ldxb r6, [r1+0]\njeq r6, 0, +1\nmov r6, 5\nmov r0, r6\nexit"),
        [b"\x00", b"\x03"]),
    # A 4-byte store 6 bytes into the 8-byte value.
    "value length check dropped": (
        vm_module, "_access", value_length_unchecked, Program([
            *_lookup_hit(),
            Instruction(Opcode.JEQ, dst=0, imm=0, offset=1),
            Instruction(Opcode.STW, dst=0, offset=6, imm=1),
            Instruction(Opcode.EXIT),
        ]), [b""]),
    # Only the jump reads the incremented r3.
    "live write treated as dead": (verifier_module, "_reads", jump_operands_unread,
                                   assemble(
        "ldxb r3, [r1+0]\nadd r3, 1\nmov r0, 0\njeq r3, 1, +1\nmov r0, 1\nexit"
    ), [b"\x00", b"\x05"]),
    # pc 3 is entered from pc 1 and from pc 2.
    "nested block loses its second entry": (
        vm_module, "_entries", one_entry_per_block, assemble(
            "ldxb r6, [r1+0]\njeq r6, 0, +1\nmov r6, 5\nmov r0, r6\nexit"),
        [b"\x00", b"\x03"]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_of_the_emitter_rules_is_killed(name, monkeypatch):
    """The real rules run the program as the oracle does, raising nothing
    but a named ProtocolError; each mutant gives a different outcome, or
    the overrun value's ``struct.error`` or the lost entry's unbound
    counter."""
    module, rule, mutant, program, contexts = MUTANTS[name]
    assert_same(program, contexts)
    monkeypatch.setattr(module, rule, mutant)
    BpfVm(program, maps=fresh_maps())  # the mutant still compiles
    with pytest.raises((AssertionError, struct.error, UnboundLocalError)):
        assert_same(program, contexts)


@pytest.mark.parametrize("program", [
    # The fd is the context's first byte: 1 hits, 0 misses, 3 names no map.
    "stdw [r10-8], 0\nldxb r1, [r1+0]\nmov r2, r10\nadd r2, -8\ncall 1\n"
    "jeq r0, 0, +2\nstxw [r0+4], r0\nldxdw r0, [r0+0]\nexit",
    # The key is the context: all zeros hits, a short one faults.
    "mov r2, r1\nmov r1, 1\ncall 1\njeq r0, 0, +1\nldxdw r0, [r0+4]\nexit",
    # The key's offset is a register, one path sets the fd to another map.
    "ldxb r6, [r1+0]\nmov r1, 1\njne r6, 7, +1\nmov r1, 0\nmov r3, -8\n"
    "mov r2, r10\nadd r2, r3\ncall 1\njne r0, 0, +1\nexit\nldxw r0, [r0+4]\n"
    "exit",
], ids=["fd-from-context", "key-on-context", "fd-joined-key-by-register"])
def test_a_lookup_that_is_not_inline_exposes_its_value(program):
    """A lookup whose fd or key the facts do not know runs as the helper,
    and the accesses through its value still reach that value."""
    assert "region_of(r0 >> 48)" in vm_module._source(assemble(program))
    assert_same(assemble(program), [bytes(8), b"\x00" * 3, b"\x07" + bytes(7),
                                    b"\x03" + bytes(7), b"\x01" * 8])


def test_known_bases_compile_to_direct_codecs():
    """What the facts buy on the fail2ban filter: every stack, context and
    map-value access names its buffer and a constant start, both map
    helpers run inline, no region table is built and no block tests its
    pc."""
    source = vm_module._source(build_fail2ban_program())
    for absent in ("region_of(", "regions", "helper", "pc ==", "r1 =", "r2 ="):
        assert absent not in source
    assert "r8, = load8(value7, 0)" in source
    assert "store8(value7, 0, r8 & 0xffffffffffffffff)" in source
    assert "r6, = load4(context, 0)" in source and "store8(stack, 496, r7" in source


def test_an_lddw_is_no_access_through_a_register():
    """An LDDW loads an immediate: a program whose only accesses are on
    the context builds no region table, whatever r0 holds."""
    program = assemble("ldxdw r4, [r1+0]\nldxdw r0, [r1+8]\njeq r4, 0, +3\n"
                       "lddw r3, 0x100000000\nja +2\nlddw r3, 0x200000000\n"
                       "mov r0, r3\nexit")
    assert "regions" not in vm_module._source(program)
    assert_same(program, [bytes(16), b"\x01" + bytes(15), bytes(8)])


#: ``make bpf-source``: the fail2ban filter's run function, as compiled.
FAIL2BAN_SOURCE = """\
def run(vm, data):
    context = bytearray(data)
    length = len(context)
    stack = bytearray(512)
    next_region = 16
    if 4 > length:
        raise bounds(0x2000000000000, 4, 'read')
    r6, = load4(context, 0)
    if 5 > length:
        raise bounds(0x2000000000004, 1, 'read')
    r7, = load1(context, 4)
    store4(stack, 504, r6 & 0xffffffff)
    store4(stack, 508, 0)
    bpf_map = vm.maps.get(1)
    if bpf_map is None:
        vm.map_by_fd(1)  # raises
    size = bpf_map.key_size
    if size > 8:
        raise bounds(0x10000000001f8, size, 'read')
    key = bytes(stack[504:504 + size])
    value7 = bpf_map.lookup(key)
    if value7 is None:
        r0 = 0
    else:
        region = next_region
        next_region = region + 1
        r0 = base7 = (region << 48) & 0xffffffffffffffff
    if r0 != 0:
        if 8 > len(value7):
            raise bounds(base7, 8, 'read')
        r8, = load8(value7, 0)
        r8 = (r8 + r7) & 0xffffffffffffffff
        if 8 > len(value7):
            raise bounds(base7, 8, 'write')
        store8(value7, 0, r8 & 0xffffffffffffffff)
        if r8 > 3:
            return ExecutionResult(0, 15, 1, context)
        else:
            return ExecutionResult(1, 15, 1, context)
    else:
        store8(stack, 496, r7 & 0xffffffffffffffff)
        bpf_map = vm.maps.get(1)
        if bpf_map is None:
            vm.map_by_fd(1)  # raises
        size = bpf_map.key_size
        if size > 8:
            raise bounds(0x10000000001f8, size, 'read')
        key = bytes(stack[504:504 + size])
        size = bpf_map.value_size
        if size > 16:
            raise bounds(0x10000000001f0, size, 'read')
        value = bytes(stack[496:496 + size])
        bpf_map.update(key, value)
        r0 = 0
        return ExecutionResult(1, 19, 2, context)
"""


def test_the_fail2ban_filter_compiles_to_the_pinned_text():
    """An emitter change shows here as a diff of generated code; when it
    is meant, paste the new ``make bpf-source`` output above."""
    assert vm_module._source(build_fail2ban_program()) == FAIL2BAN_SOURCE


def test_a_chain_deeper_than_the_nesting_limit_is_tested_by_pc():
    """A block one edge enters nests in the block it leaves; past
    ``_MAX_NESTING`` levels the chain goes on as roots, tested by pc."""
    lines = ["ldxb r3, [r1+0]", "mov r0, 0"]
    for value in range(2 * vm_module._MAX_NESTING):
        lines += [f"jne r3, {value}, +2", f"mov r0, {value}", "exit"]
    program = assemble("\n".join(lines + ["exit"]))
    assert "if pc == " in vm_module._source(program)
    outcomes, *_ = assert_same(program, [b"\x00", b"\x25", b"\x3f", b"\xff"])
    assert [outcome[:2] for outcome in outcomes] == [
        (0, 5), (37, 42), (63, 68), (0, 67)]


# -- the compiled function ----------------------------------------------------

FAIL2BAN_CONTEXTS = [  # a miss that inserts, a hit on it, a hit on the 7
    struct.pack("<IB", 5, 1).ljust(16, b"\0"),
    struct.pack("<IB", 5, 1).ljust(16, b"\0"),
    struct.pack("<IB", 0, 0).ljust(16, b"\0"),
]
CORPUS_CONTEXT = (443).to_bytes(4, "little") + bytes(28)


@pytest.mark.parametrize("name", [entry[0] for entry in program_corpus()])
def test_corpus_programs_run_or_are_refused(name):
    """The E10 corpus (the fail2ban filter on a miss, a hit and a ban): a
    program the verifier accepts runs as on the oracle; one it rejects
    neither VM builds, with ``compile_program``'s message."""
    program, expected_ok = {entry[0]: entry[1:] for entry in program_corpus()}[name]
    if expected_ok:
        contexts = FAIL2BAN_CONTEXTS if name == "fail2ban" else [CORPUS_CONTEXT]
        assert_same(program, contexts)
        return
    with pytest.raises(VerificationError) as caught:
        compile_program(program)
    assert refused(program) == str(caught.value)
    assert re.fullmatch(rf"program '{name}' rejected: pc \d+: .+", str(caught.value))


def test_the_program_name_never_reaches_the_source():
    program = assemble(f"mov r0, 7\ncall {HELPER_TRACE_PRINTK}\nexit")
    program.name = 'q"uo\'te\n"""\\'
    (outcome,), *_ = assert_same(program)
    assert outcome[0] == 0


def test_the_reference_compiles_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compile() called")

    monkeypatch.setattr(vm_module, "compile", refuse, raising=False)
    program = assemble("mov r0, 1\nmov r0, 2\nexit")
    assert ReferenceVm(program).run().return_value == 2
    with pytest.raises(AssertionError, match="compile"):
        BpfVm(program)


def test_generated_code_is_charged_to_ebpf_and_shows_in_tracebacks():
    """The pseudo-filename sits in the package directory (a profile charges
    it to ``ebpf``) and ``linecache`` holds the generated text under it."""
    program = assemble("ldxb r0, [r1+0]\nexit")
    with pytest.raises(ProtocolError) as caught:
        BpfVm(program).run()
    frame, = [frame for frame in traceback.extract_tb(caught.value.__traceback__)
              if "<bpf:" in frame.filename]
    assert os.path.dirname(frame.filename) == os.path.dirname(
        os.path.abspath(vm_module.__file__))
    assert frame.line == "raise bounds(0x2000000000000, 1, 'read')"


def test_identical_programs_share_one_source_entry():
    program = assemble("mov r0, 3\nexit")
    first = BpfVm(program)._run.__code__.co_filename
    entries = len(linecache.cache)
    second = BpfVm(assemble("mov r0, 3\nexit"))._run.__code__.co_filename
    assert second == first and len(linecache.cache) == entries
