"""Differential tests: the translated ``BpfVm`` against the reference oracle.

``BpfVm`` translates a program into step closures once; ``ReferenceVm``
(``tests/ebpf_reference.py``) is the former ``if``-chain interpreter.
Every program here runs on both, each with its own copy of the maps, and
must produce the same result object or the same named error, and leave the
same map contents and ``trace_log`` behind.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError, ReproError
from repro.ebpf import ArrayMap, BpfVm, HashMap, assemble
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
    STORE_IMM_OPS,
    STORE_REG_OPS,
)
from repro.eval.compiler import program_corpus
from tests.ebpf_reference import ReferenceVm

U64 = (1 << 64) - 1
HASH_FD, ARRAY_FD, MISSING_FD = 1, 2, 3
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
    """A small hash (so "map full" is reachable) and a small array."""
    hash_map = HashMap(8, 8, max_entries=3)
    hash_map.update(bytes(8), (7).to_bytes(8, "little"))
    return {HASH_FD: hash_map, ARRAY_FD: ArrayMap(value_size=8, max_entries=4)}


def observe(vm_class, program, contexts, budget):
    """Everything a caller can see of running *program* on each context."""
    maps = fresh_maps()
    kwargs = {} if budget is None else {"max_instructions": budget}
    vm = vm_class(program, maps=maps, **kwargs)
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
        [bytes(maps[ARRAY_FD].lookup_index(i)) for i in range(4)],
        vm.trace_log,
    )


def assert_same(program, contexts=(b"",), budget=None):
    expected = observe(ReferenceVm, program, contexts, budget)
    assert observe(BpfVm, program, contexts, budget) == expected
    return expected


# -- exhaustive operator grid -------------------------------------------------

EDGE_VALUES = [0, 1, 2, 63, 64, 65, (1 << 31) - 1, 1 << 31, (1 << 32) - 1,
               1 << 32, (1 << 63) - 1, 1 << 63, U64 - 1, U64]
EDGE_IMMS = [0, 1, 7, 63, 64, -1, -8, (1 << 31) - 1, -(1 << 31)]


@pytest.mark.parametrize("op", ALU, ids=lambda op: op.value)
def test_every_alu_op_matches_the_oracle(op):
    for dst, src in itertools.product(EDGE_VALUES, EDGE_VALUES):
        assert_same(Program([
            Instruction(Opcode.LDDW, dst=0, imm=dst),
            Instruction(Opcode.LDDW, dst=3, imm=src),
            Instruction(op, dst=0, src=3, uses_reg_src=True),
            Instruction(Opcode.EXIT),
        ]))
    for dst, imm in itertools.product(EDGE_VALUES, EDGE_IMMS):
        assert_same(Program([
            Instruction(Opcode.LDDW, dst=0, imm=dst),
            Instruction(op, dst=0, imm=imm),
            Instruction(Opcode.EXIT),
        ]))


@pytest.mark.parametrize("op", JUMPS, ids=lambda op: op.value)
def test_every_branch_kind_matches_the_oracle(op):
    def check(dst, src, compare):
        assert_same(Program([
            Instruction(Opcode.LDDW, dst=3, imm=dst),
            Instruction(Opcode.LDDW, dst=4, imm=src),
            Instruction(Opcode.MOV, dst=0, imm=1),
            compare,
            Instruction(Opcode.MOV, dst=0, imm=2),
            Instruction(Opcode.EXIT),
        ]))

    for dst, src in itertools.product(EDGE_VALUES, EDGE_VALUES):
        check(dst, src, Instruction(op, dst=3, src=4, offset=1, uses_reg_src=True))
    for dst, imm in itertools.product(EDGE_VALUES, EDGE_IMMS):
        check(dst, 0, Instruction(op, dst=3, imm=imm, offset=1))


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
    if where == "stack":
        return 10, draw(st.integers(min_value=-520, max_value=8))
    if where == "context":
        return CTX_REG, draw(st.integers(min_value=-4, max_value=context_size + 4))
    if where == "r0":  # a map-value pointer after a lookup hit, else garbage
        return 0, draw(st.integers(min_value=-2, max_value=10))
    return draw(_reg), draw(st.integers(min_value=-16, max_value=16))


@st.composite
def _call(draw):
    """A helper call with its argument set-up."""
    helper = draw(st.sampled_from([
        HELPER_MAP_LOOKUP, HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE,
        HELPER_MAP_UPDATE, HELPER_KTIME_GET_NS, HELPER_TRACE_PRINTK,
        HELPER_GET_PRANDOM_U32, UNKNOWN_HELPER,
    ]))
    setup = []
    if helper in (HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE):
        fd = draw(st.sampled_from([HASH_FD, HASH_FD, HASH_FD, ARRAY_FD, MISSING_FD]))
        # Key at a slot the stores above may have filled; sometimes off the stack.
        key_at = draw(st.sampled_from([-8, -16, -24, -4, 0]))
        setup += [Instruction(Opcode.MOV, dst=1, imm=fd)] + _stack_pointer(2, key_at)
        if helper == HELPER_MAP_UPDATE:
            setup += _stack_pointer(3, draw(st.sampled_from([-16, -32, -8, -4])))
            setup.append(Instruction(Opcode.MOV, dst=4, imm=0))
    return setup + [Instruction(Opcode.CALL, imm=helper)]


@st.composite
def _instruction(draw, context_size):
    """One body element: a list of instructions, or a pending branch."""
    kind = draw(st.sampled_from(
        ["alu"] * 4 + ["load"] * 3 + ["store"] * 3 + ["branch"] * 3
        + ["lddw", "call", "call", "ja"]
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
    skip = draw(st.integers(min_value=0, max_value=4))
    if kind == "ja":
        return ("branch", Instruction(Opcode.JA), skip)
    return ("branch", Instruction(
        draw(st.sampled_from(JUMPS)), dst=draw(_reg), src=draw(_reg),
        imm=draw(_imm32), uses_reg_src=draw(st.booleans()),
    ), skip)


@st.composite
def mixed_program(draw, context_size):
    """ALU, LDDW, memory, forward branches and helper calls, unverified."""
    prelude = [Instruction(Opcode.MOV, dst=CTX_REG, src=1, uses_reg_src=True)]
    for reg in (0, 3, 4, 5, 6, 7, 8):
        prelude.append(Instruction(Opcode.LDDW, dst=reg, imm=draw(_imm64)))
    body = draw(st.lists(_instruction(context_size), min_size=1, max_size=14))
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


@st.composite
def _case(draw):
    context_size = draw(st.sampled_from([0, 1, 5, 8, 16]))
    program = draw(mixed_program(context_size))
    contexts = [draw(st.binary(min_size=context_size, max_size=context_size))
                for _ in range(2)]
    budget = draw(st.one_of(
        st.none(), st.none(), st.integers(min_value=0, max_value=len(program) + 1)
    ))
    return program, contexts, budget


@settings(max_examples=400, deadline=None)
@given(case=_case())
def test_translated_vm_matches_the_reference(case):
    """Two runs on one VM pair: the second sees the first's map state and
    must not see its registers, regions or counters."""
    program, contexts, budget = case
    assert_same(program, contexts, budget)


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


def fault(program, **kwargs):
    with pytest.raises(ProtocolError) as caught:
        BpfVm(program, **kwargs).run()
    with pytest.raises(ProtocolError) as expected:
        ReferenceVm(program, **kwargs).run()
    assert str(caught.value) == str(expected.value)
    return str(caught.value)


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
        assert fault(program, max_instructions=1) == "instruction budget exhausted (1)"
        assert fault(program, max_instructions=2) == "pc 6 out of range"

    def test_budget_raises_before_the_first_over_budget_instruction(self):
        program = assemble("mov r0, 1\nmov r0, 2\nexit")
        assert fault(program, max_instructions=2) == "instruction budget exhausted (2)"
        assert BpfVm(program, max_instructions=3).run().instructions_executed == 3
        assert fault(program, max_instructions=0) == "instruction budget exhausted (0)"

    def test_budget_hit_after_a_call_keeps_its_side_effect(self):
        program = assemble(
            f"mov r1, 11\nmov r2, 22\ncall {HELPER_TRACE_PRINTK}\n"
            f"mov r1, 33\ncall {HELPER_TRACE_PRINTK}\nexit"
        )
        logs = []
        for vm_class in (ReferenceVm, BpfVm):
            vm = vm_class(program, max_instructions=3)
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
        helpers = standard_helpers()
        vm = BpfVm(assemble("call 42\nexit"), helpers=helpers)
        with pytest.raises(ProtocolError, match="unknown helper 42"):
            vm.run()
        helpers.register(42, lambda vm, args: 4242)
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
