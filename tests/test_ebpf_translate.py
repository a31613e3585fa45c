"""Differential tests: the compiled ``BpfVm`` against the reference oracle.

``BpfVm`` compiles a program into one Python function once (and a checked
twin when a run would cross the budget mid-block); ``ReferenceVm``
(``tests/ebpf_reference.py``) is the former ``if``-chain interpreter.
Every program here runs on both, each with its own copy of the maps, and
must produce the same result object or the same named error, and leave the
same map contents and ``trace_log`` behind.
"""

import itertools
import linecache
import os
import re
import struct
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ebpf.vm as vm_module
from repro.apps.fail2ban import build_fail2ban_program
from repro.common.errors import ProtocolError, ReproError
from repro.ebpf import BpfVm, HashMap, assemble
from repro.ebpf.helpers import (
    HELPER_GET_PRANDOM_U32,
    HELPER_KTIME_GET_NS,
    HELPER_MAP_LOOKUP,
    HELPER_MAP_UPDATE,
    HELPER_TRACE_PRINTK,
    standard_helpers,
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
from tests.ebpf_reference import ReferenceVm

U64 = (1 << 64) - 1
HASH_FD, MISSING_FD = 1, 3
UNKNOWN_HELPER = 99
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
    """A small hash, so "map full" is reachable."""
    hash_map = HashMap(8, 8, max_entries=3)
    hash_map.update(bytes(8), (7).to_bytes(8, "little"))
    return {HASH_FD: hash_map}


def budgeted(vm, budget):
    """*vm* with its instruction budget lowered to *budget*."""
    vm.max_instructions = budget
    return vm


STANDARD_LOOKUP = standard_helpers().table[HELPER_MAP_LOOKUP]


def traced_lookup(vm, args):
    """A replacement lookup helper: the standard one, logged to ``trace_log``
    so a run that skips it differs."""
    vm.trace_log.append(("lookup", args[0], args[1]))
    return STANDARD_LOOKUP(vm, args)


def observe(vm_class, program, contexts, budget, lookup=None):
    """Everything a caller can see of running *program* on each context,
    with *lookup* in place of the standard lookup helper when given."""
    maps = fresh_maps()
    vm = vm_class(program, maps=maps)
    if budget is not None:
        budgeted(vm, budget)
    if lookup is not None:
        vm.helpers.table[HELPER_MAP_LOOKUP] = lookup
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
        list(maps[HASH_FD].items()),
        vm.trace_log,
    )


def assert_same(program, contexts=(b"",), budget=None, lookup=None):
    expected = observe(ReferenceVm, program, contexts, budget, lookup)
    assert observe(BpfVm, program, contexts, budget, lookup) == expected
    return expected


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
        assert_same(Program([
            *load_operands(0, 3),
            Instruction(op, dst=0, imm=imm),
            Instruction(Opcode.EXIT),
        ]), EDGE_DSTS)


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
    past it, so the last in-bounds and first out-of-bounds offsets of both
    ends are hit for every size."""
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
    for access, (base, low, high) in itertools.product(accesses, regions):
        offsets = [*range(low - 2, low + 2), *range(high - size - 1, high + 2)]
        for offset in offsets:
            assert_same(Program([
                Instruction(Opcode.MOV, dst=CTX_REG, src=1, uses_reg_src=True),
                Instruction(Opcode.LDDW, dst=7, imm=0x1122334455667788),
                *_lookup_hit(),
                access(base, offset),
                # Read back what a store left around the accessed bytes.
                Instruction(Opcode.LDXDW, dst=0, src=CTX_REG, offset=0),
                Instruction(Opcode.ADD, dst=0, src=6, uses_reg_src=True),
                Instruction(Opcode.EXIT),
            ]), [context])


def test_call_clobbers_r1_to_r5_and_nothing_else():
    for reg in range(1, 10):
        program = Program([
            Instruction(Opcode.MOV, dst=reg, imm=77),
            Instruction(Opcode.CALL, imm=HELPER_KTIME_GET_NS),
            Instruction(Opcode.MOV, dst=0, src=reg, uses_reg_src=True),
            Instruction(Opcode.EXIT),
        ])
        (outcome,), *_ = assert_same(program)
        assert outcome[0] == (0 if reg <= 5 else 77)


# -- generated programs -------------------------------------------------------

_reg = st.integers(min_value=0, max_value=9)
_writable = st.integers(min_value=0, max_value=8)  # r9 keeps the context pointer
_imm32 = st.one_of(
    st.sampled_from(EDGE_IMMS),
    st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
)
_imm64 = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, U64))


@st.composite
def _memory_operand(draw, context_size):
    """(base register, offset): mostly near a real buffer's edges."""
    where = draw(st.sampled_from(["stack"] * 4 + ["context"] * 3 + ["r0", "any"]))
    if where == "stack":  # often at the stack's end, where bounds are off by one
        return 10, draw(st.one_of(st.integers(min_value=-520, max_value=8),
                                  st.integers(min_value=-9, max_value=1)))
    if where == "context":
        return CTX_REG, draw(st.integers(min_value=-4, max_value=context_size + 4))
    if where == "r0":  # a map-value pointer after a lookup hit, else garbage
        return 0, draw(st.integers(min_value=-2, max_value=10))
    return draw(_reg), draw(st.integers(min_value=-16, max_value=16))


@st.composite
def _call(draw, helper=None):
    """A call of *helper* (else a drawn one) with its argument set-up; a map
    call is sometimes followed by a lookup on the registers it clobbered."""
    helper = helper or draw(st.sampled_from([
        HELPER_MAP_LOOKUP, HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE,
        HELPER_MAP_UPDATE, HELPER_KTIME_GET_NS, HELPER_TRACE_PRINTK,
        HELPER_GET_PRANDOM_U32, UNKNOWN_HELPER,
    ]))
    setup = []
    if helper in (HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE):
        fd = draw(st.sampled_from([HASH_FD, HASH_FD, HASH_FD, MISSING_FD]))
        # Key at a slot the stores above may have filled; sometimes off the
        # stack, by one byte (-7) or more.
        key_at = draw(st.sampled_from([-8, -16, -24, -7, -4, 0]))
        setup += [Instruction(Opcode.MOV, dst=1, imm=fd)] + _stack_pointer(2, key_at)
        if helper == HELPER_MAP_UPDATE:
            setup += _stack_pointer(3, draw(st.sampled_from([-16, -32, -8, -4])))
            setup.append(Instruction(Opcode.MOV, dst=4, imm=0))
    calls = [Instruction(Opcode.CALL, imm=helper)]
    if setup and draw(st.booleans()):
        calls.append(Instruction(Opcode.CALL, imm=HELPER_MAP_LOOKUP))
    return setup + calls


@st.composite
def _frame_write(draw):
    """A write to r10, which no verifier passes: the compiler must then
    stop taking r10 for the frame pointer anywhere in the program."""
    form = draw(st.sampled_from(["mov", "alu", "lddw", "load"]))
    if form == "mov":  # r9 holds the context: r10 may stay a valid pointer
        return [Instruction(Opcode.MOV, dst=10, src=draw(_reg), uses_reg_src=True)]
    if form == "alu":
        return [Instruction(draw(st.sampled_from(ALU)), dst=10, imm=draw(_imm32))]
    if form == "lddw":
        return [Instruction(Opcode.LDDW, dst=10, imm=draw(_imm64))]
    base, offset = draw(_memory_operand(8))
    return [Instruction(draw(st.sampled_from(LOADS)), dst=10, src=base, offset=offset)]


@st.composite
def _back(draw):
    """A pending branch back to pc 0 at the end of a list that reads through
    r9 and moves r1: pc 0 may see another r1 than the context pointer, and
    copies it to r9, which the pc-0 block then reads through."""
    branch = Instruction(Opcode.JA)
    if draw(st.booleans()):
        branch = Instruction(
            draw(st.sampled_from(JUMPS)), dst=draw(_reg), src=draw(_reg),
            imm=draw(_imm32), uses_reg_src=draw(st.booleans()),
        )
    return [Instruction(draw(st.sampled_from(LOADS)), dst=draw(_writable), src=CTX_REG),
            Instruction(Opcode.MOV, dst=1, src=draw(_reg), uses_reg_src=True),
            (branch, None)]


@st.composite
def _instruction(draw, context_size):
    """One body element: a list of instructions, or a pending branch."""
    kind = draw(st.sampled_from(
        ["alu"] * 4 + ["load"] * 3 + ["store"] * 3 + ["branch"] * 3
        + ["lddw", "call", "call", "ja", "frame", "back"]
    ))
    if kind == "alu":
        return [Instruction(
            draw(st.sampled_from(ALU)), dst=draw(_writable), src=draw(_reg),
            imm=draw(_imm32), uses_reg_src=draw(st.booleans()),
        )]
    if kind == "lddw":
        return [Instruction(Opcode.LDDW, dst=draw(_writable), imm=draw(_imm64))]
    if kind == "load":
        base, offset = draw(_memory_operand(context_size))
        return [Instruction(
            draw(st.sampled_from(LOADS)), dst=draw(_writable), src=base, offset=offset,
        )]
    if kind == "store":
        base, offset = draw(_memory_operand(context_size))
        if draw(st.booleans()):
            return [Instruction(
                draw(st.sampled_from(STORES_REG)), dst=base, src=draw(_reg),
                offset=offset,
            )]
        return [Instruction(
            draw(st.sampled_from(STORES_IMM)), dst=base, offset=offset,
            imm=draw(_imm32),
        )]
    if kind == "call":
        return draw(_call())
    if kind == "frame":
        return draw(_frame_write())
    if kind == "ja":
        return ("branch", Instruction(Opcode.JA), draw(st.integers(0, 4)))
    if kind == "back":
        return draw(_back())
    branch = Instruction(
        draw(st.sampled_from(JUMPS)), dst=draw(_reg), src=draw(_reg),
        imm=draw(_imm32), uses_reg_src=draw(st.booleans()),
    )
    return ("branch", branch, draw(st.integers(0, 4)))


@st.composite
def mixed_program(draw, context_size):
    """ALU, LDDW, memory, forward branches, branches back to pc 0, helper
    calls and writes to r10, unverified."""
    prelude = [Instruction(Opcode.MOV, dst=CTX_REG, src=1, uses_reg_src=True)]
    for reg in (0, 3, 4, 5, 6, 7, 8):
        prelude.append(Instruction(Opcode.LDDW, dst=reg, imm=draw(_imm64)))
    # Half the programs start with a map lookup and half with a branch back
    # to pc 0, so each is reached before a faulting access ends the run.
    body = [draw(_call(HELPER_MAP_LOOKUP))] if draw(st.booleans()) else []
    body += [draw(_back())] if draw(st.booleans()) else []
    body += draw(st.lists(_instruction(context_size), min_size=1, max_size=14))
    flat = []  # Instruction, or (Instruction, elements to skip)
    for element in body:
        if isinstance(element, tuple):
            flat.append(element[1:])
        else:
            flat.extend(element)
    # Resolve each branch to skip whole instructions (LDDW counts two slots),
    # clamped to the final EXIT.
    instructions = list(prelude)
    for index, item in enumerate(flat):
        if isinstance(item, Instruction):
            instructions.append(item)
            continue
        branch, skip = item
        if skip is None:  # to pc 0
            offset = -1 - sum(insn.slots for insn in instructions)
        else:
            skipped = flat[index + 1 : index + 1 + skip]
            offset = sum(
                (entry if isinstance(entry, Instruction) else entry[0]).slots
                for entry in skipped
            )
        instructions.append(Instruction(
            branch.opcode, dst=branch.dst, src=branch.src, offset=offset,
            imm=branch.imm, uses_reg_src=branch.uses_reg_src,
        ))
    instructions.append(Instruction(Opcode.EXIT))
    return Program(instructions, name="mixed")


#: The budget of a generated program that jumps back to pc 0.
LOOP_BUDGET = 64


@st.composite
def _case(draw):
    context_size = draw(st.sampled_from([0, 1, 5, 8, 16]))
    program = draw(mixed_program(context_size))
    contexts = [draw(st.binary(min_size=context_size, max_size=context_size))
                for _ in range(2)]
    if any(insn.offset < 0 for insn in program.instructions
           if insn.is_cond_jump or insn.opcode is Opcode.JA):
        # May loop: a small budget ends every run of the reference quickly.
        budget = draw(st.one_of(st.just(LOOP_BUDGET),
                                st.integers(min_value=0, max_value=LOOP_BUDGET)))
    else:
        budget = draw(st.one_of(
            st.none(), st.none(),
            st.integers(min_value=0, max_value=len(program) + 1),
        ))
    # A replaced lookup helper must be called, even where the compiler
    # would inline the standard one.
    lookup = draw(st.sampled_from([None, None, None, traced_lookup]))
    return program, contexts, budget, lookup


@settings(max_examples=400, deadline=None)
@given(case=_case())
def test_translated_vm_matches_the_reference(case):
    """Two runs on one VM pair: the second sees the first's map state and
    must not see its registers, regions or counters."""
    program, contexts, budget, lookup = case
    assert_same(program, contexts, budget, lookup)


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


# -- fault edges (programs no verifier would pass) ----------------------------


def fault(program, budget=None):
    """The error both VMs raise running *program* (under *budget*)."""
    messages = []
    for vm_class in (BpfVm, ReferenceVm):
        vm = vm_class(program)
        if budget is not None:
            budgeted(vm, budget)
        with pytest.raises(ProtocolError) as caught:
            vm.run()
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestFaultEdges:
    def test_jump_past_the_end(self):
        assert fault(assemble("mov r0, 1\nja +5\nexit")) == "pc 7 out of range"

    def test_jump_before_the_start(self):
        program = Program([Instruction(Opcode.JA, offset=-4), Instruction(Opcode.EXIT)])
        assert fault(program) == "pc -3 out of range"

    def test_falling_off_the_end(self):
        assert fault(assemble("mov r0, 1")) == "pc 1 out of range"
        assert fault(assemble("lddw r0, 5")) == "pc 2 out of range"
        assert fault(Program([])) == "pc 0 out of range"

    def test_jump_into_the_second_lddw_slot(self):
        program = assemble("ja +1\nlddw r0, 0x1122334455667788\nexit")
        assert fault(program) == "pc 2 lands in the middle of LDDW"

    def test_budget_is_checked_before_the_pc(self):
        program = assemble("ja +5\nexit")
        assert fault(program, budget=1) == "instruction budget exhausted (1)"
        assert fault(program, budget=2) == "pc 6 out of range"

    def test_budget_raises_before_the_first_over_budget_instruction(self):
        program = assemble("mov r0, 1\nmov r0, 2\nexit")
        assert fault(program, budget=2) == "instruction budget exhausted (2)"
        assert budgeted(BpfVm(program), 3).run().instructions_executed == 3
        assert fault(program, budget=0) == "instruction budget exhausted (0)"

    def test_budget_hit_after_a_call_keeps_its_side_effect(self):
        program = assemble(
            f"mov r1, 11\nmov r2, 22\ncall {HELPER_TRACE_PRINTK}\n"
            f"mov r1, 33\ncall {HELPER_TRACE_PRINTK}\nexit"
        )
        logs = []
        for vm_class in (ReferenceVm, BpfVm):
            vm = budgeted(vm_class(program), 3)
            with pytest.raises(ProtocolError, match="budget exhausted"):
                vm.run()
            logs.append(vm.trace_log)
        assert logs[0] == logs[1] == [(11, 22, 0, 0, 0)]

    def test_unknown_helper_faults_at_the_call_not_at_construction(self):
        program = assemble(f"mov r0, 1\nexit\ncall {UNKNOWN_HELPER}\nexit")
        assert BpfVm(program).run().return_value == 1
        reached = assemble(f"call {UNKNOWN_HELPER}\nexit")
        assert fault(reached) == f"unknown helper {UNKNOWN_HELPER}"

    def test_unhandled_opcode_faults_only_when_reached(self):
        bogus = Instruction("bogus")  # the dataclass does not police its opcode
        skipped = Program([Instruction(Opcode.EXIT), bogus])
        assert BpfVm(skipped).run().instructions_executed == 1
        assert fault(Program([bogus])) == "unhandled opcode bogus"

    def test_memory_faults_are_named(self):
        assert fault(assemble("ldxdw r0, [r10+0]\nexit")).startswith(
            "out-of-bounds read at 0x1000000000200 (8 bytes)")
        assert fault(assemble("stw [r10-2], 1\nexit")).startswith(
            "out-of-bounds write at 0x10000000001fe (4 bytes)")
        assert fault(assemble("mov r3, 64\nstxb [r3+0], r3\nexit")) == (
            "dereference of invalid pointer 0x40")


class TestLateBinding:
    def test_helper_registered_after_construction_is_callable(self):
        vm = BpfVm(assemble("call 42\nexit"))
        with pytest.raises(ProtocolError, match="unknown helper 42"):
            vm.run()
        vm.helpers.register(42, lambda vm, args: 4242)
        result = vm.run()
        assert (result.return_value, result.helper_calls) == (4242, 1)

    def test_budget_is_read_per_run(self):
        vm = BpfVm(assemble("mov r0, 1\nexit"))
        vm.max_instructions = 1
        with pytest.raises(ProtocolError, match=r"budget exhausted \(1\)"):
            vm.run()

    def test_each_run_returns_its_own_context_buffer(self):
        vm = BpfVm(assemble("ldxb r0, [r1+0]\nadd r0, 1\nstxb [r1+0], r0\nexit"))
        first = vm.run(b"\x01")
        second = vm.run(b"\x10")
        assert (bytes(first.context), bytes(second.context)) == (b"\x02", b"\x11")

    def test_regions_are_rebuilt_for_every_run(self):
        """Run 1 exposes a map value as region 16; run 2 on the same VM
        skips the lookup and dereferences that stale pointer."""
        program = Program([
            Instruction(Opcode.LDXB, dst=6, src=1, offset=0),
            Instruction(Opcode.JEQ, dst=6, imm=0, offset=len(_lookup_hit()) + 1),
            *_lookup_hit(),
            Instruction(Opcode.EXIT),
            Instruction(Opcode.LDDW, dst=3, imm=16 << 48),
            Instruction(Opcode.LDXDW, dst=0, src=3, offset=0),
            Instruction(Opcode.EXIT),
        ])
        outcomes, *_ = assert_same(program, [b"\x01", b"\x01", b"\x00"])
        # Region numbering restarts per run; the third run's pointer is stale.
        assert outcomes[0][0] == outcomes[1][0] == 16 << 48
        assert outcomes[2] == (
            "ProtocolError", "dereference of invalid pointer 0x10000000000000")

    def test_a_map_added_to_the_callers_empty_dict_is_seen(self):
        maps = {}
        vm = BpfVm(Program(_lookup_hit() + [Instruction(Opcode.EXIT)]), maps=maps)
        assert vm.maps is maps
        maps.update(fresh_maps())
        assert vm.run().return_value == 16 << 48


# -- mutants of the emitter's rules ------------------------------------------
#
# Where the compiler can see a pointer it drops the region lookup
# (``vm._bases`` says which registers it sees at a block's entry,
# ``vm._track`` what it learns from each instruction, ``vm._direct`` which
# static accesses skip the lookup), and where it sees a map lookup's fd
# and key it inlines the helper (``vm._call``). Each mutant below breaks
# one of those rules; the oracle must catch it on a pinned program that
# the real rules compile correctly.

real_bases, real_direct = vm_module._bases, vm_module._direct
real_track, real_call = vm_module._track, vm_module._call


def r10_known_although_written(program, targets):
    at_entry, anywhere = real_bases(program, targets)
    frame = {10: vm_module.FRAME_POINTER}
    return {**at_entry, **frame}, {**anywhere, **frame}


def stack_bound_off_by_one(pointer, size, access):
    start = pointer & ((1 << vm_module.REGION_SHIFT) - 1)
    if (pointer >> vm_module.REGION_SHIFT == vm_module.STACK_REGION
            and start + size == STACK_SIZE + 1):
        return [], f"stack, {start:d}"
    return real_direct(pointer, size, access)


def r1_known_at_a_jumped_to_pc_0(program, targets):
    return real_bases(program, targets - {0})


def lookup_inlined_without_the_identity_guard(helper_id, known):
    return [line.replace("helper is map_lookup", "True")
            for line in real_call(helper_id, known)]


def constant_kept_across_a_call(insn, known):
    if insn.opcode is not Opcode.CALL:
        real_track(insn, known)


def key_bound_off_by_one(helper_id, known):
    return [re.sub(r"if size > (\d+):", lambda m: f"if size > {int(m[1]) + 1}:",
                   line) for line in real_call(helper_id, known)]


MUTANTS = {
    # r10 moved to the context in one block, read through in the next.
    "r10 known although written": ("_bases", r10_known_although_written, assemble(
        "mov r10, r1\nadd r10, 8\nja +0\nldxdw r0, [r10-8]\nexit"
    ), [bytes(range(1, 9))]),
    # The first byte past the stack's end.
    "stack bound off by one": ("_direct", stack_bound_off_by_one, assemble(
        "ldxb r0, [r10+0]\nexit"
    ), [b""]),
    # The second pass through pc 0 reads the stack through r1.
    "r1 known at a jumped-to pc 0": ("_bases", r1_known_at_a_jumped_to_pc_0, assemble(
        "top:\nldxb r0, [r1+0]\njne r6, 0, done\nmov r6, 1\nstb [r10-8], 9\n"
        "mov r1, r10\nadd r1, -8\nja top\ndone:\nexit"
    ), [b"\x01"]),
    # The filter's lookup, with a replaced helper that logs each call.
    "lookup inlined without the identity guard": (
        "_call", lookup_inlined_without_the_identity_guard,
        build_fail2ban_program(), [struct.pack("<IB", 0, 0).ljust(16, b"\0")],
        traced_lookup),
    # After the first call r1 is 0: the lookup asks for map fd 0.
    "constant kept across a CALL": ("_track", constant_kept_across_a_call, assemble(
        f"stdw [r10-8], 0\nmov r1, {HASH_FD}\nmov r2, r10\nadd r2, -8\n"
        f"call {HELPER_KTIME_GET_NS}\ncall {HELPER_MAP_LOOKUP}\nexit"
    ), [b""]),
    # An 8-byte key one byte short of the stack's end.
    "key bound off by one": ("_call", key_bound_off_by_one, assemble(
        f"mov r1, {HASH_FD}\nmov r2, r10\nadd r2, -7\ncall {HELPER_MAP_LOOKUP}\nexit"
    ), [b""]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_of_the_emitter_rules_is_killed(name, monkeypatch):
    rule, mutant, program, contexts, *replaced = MUTANTS[name]
    lookup = replaced[0] if replaced else None  # the lookup helper, replaced
    assert_same(program, contexts, lookup=lookup)
    monkeypatch.setattr(vm_module, rule, mutant)
    # A wrong direct access past the stack surfaces as the codec's error.
    with pytest.raises((AssertionError, struct.error)):
        assert_same(program, contexts, lookup=lookup)


def test_known_bases_compile_to_direct_codecs():
    """What the rules buy on the fail2ban filter: its stack and context
    accesses name their buffer and a constant start; only the map value
    behind r0 is looked up per run."""
    source, _ = vm_module._source(build_fail2ban_program(), checked=False)
    assert source.count("region_of(") == 2
    assert "r6, = load4(context, 0)" in source and "store8(stack, 496, r7" in source
    checked, _ = vm_module._source(build_fail2ban_program(), checked=True)
    assert "stack" not in checked.split("**_):")[1]
    assert "context" not in checked.split("**_):")[1]


# -- the compiled function ----------------------------------------------------

FAIL2BAN_CONTEXTS = [  # a miss that inserts, a hit on it, a hit on the 7
    struct.pack("<IB", 5, 1).ljust(16, b"\0"),
    struct.pack("<IB", 5, 1).ljust(16, b"\0"),
    struct.pack("<IB", 0, 0).ljust(16, b"\0"),
]
CORPUS_CONTEXT = (443).to_bytes(4, "little") + bytes(28)


#: Where the sweep stops for a run that faults or never ends.
SWEEP_LIMIT = 24


def longest_run(program, contexts):
    """The most instructions a run on one of *contexts* executes."""
    vm = budgeted(ReferenceVm(program, maps=fresh_maps()), SWEEP_LIMIT)
    longest = 0
    for context in contexts:
        try:
            longest = max(longest, vm.run(context).instructions_executed)
        except ProtocolError:
            longest = SWEEP_LIMIT
    return longest


@pytest.mark.parametrize("name", [entry[0] for entry in program_corpus()])
def test_every_budget_cuts_where_the_oracle_does(name):
    """The E10 corpus (the fail2ban filter on a miss, a hit and a ban),
    under every budget from 0 to one past its longest run: a block the
    budget cuts runs its instructions under the budget, side effects
    included, and raises before the first one over it."""
    program = {entry[0]: entry[1] for entry in program_corpus()}[name]
    contexts = FAIL2BAN_CONTEXTS if name == "fail2ban" else [CORPUS_CONTEXT]
    for budget in range(longest_run(program, contexts) + 2):
        assert_same(program, contexts, budget)


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
    with pytest.raises(ProtocolError, match="budget exhausted"):
        budgeted(ReferenceVm(program), 1).run()
    with pytest.raises(AssertionError, match="compile"):
        BpfVm(program)


def test_the_checked_twin_is_compiled_only_when_a_run_needs_it():
    vm = BpfVm(assemble("mov r0, 1\nmov r0, 2\nexit"))
    vm.run()
    assert vm._checked_run is None
    with pytest.raises(ProtocolError, match="budget exhausted"):
        budgeted(vm, 2).run()
    assert vm._checked_run is not None


def test_generated_code_is_charged_to_ebpf_and_shows_in_tracebacks():
    """The pseudo-filename sits in the package directory (a profile charges
    it to ``ebpf``) and ``linecache`` holds the generated text under it."""
    program = assemble("mov r3, 64\nstxb [r3+0], r3\nexit")
    with pytest.raises(ProtocolError) as caught:
        BpfVm(program).run()
    frame, = [frame for frame in traceback.extract_tb(caught.value.__traceback__)
              if "<bpf:" in frame.filename]
    assert os.path.dirname(frame.filename) == os.path.dirname(
        os.path.abspath(vm_module.__file__))
    assert frame.line == "raise fault(vm, pointer, 1, 'write')"


def test_identical_programs_share_one_source_entry():
    program = assemble("mov r0, 3\nexit")
    first = BpfVm(program)._run.__code__.co_filename
    entries = len(linecache.cache)
    second = BpfVm(assemble("mov r0, 3\nexit"))._run.__code__.co_filename
    assert second == first and len(linecache.cache) == entries
