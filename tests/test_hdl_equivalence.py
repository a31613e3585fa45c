"""Property test: the hardware pipeline computes exactly what the VM does.

The §2.2 pipeline is only sound if lowering to hardware preserves program
semantics. Hypothesis generates random straight-line eBPF programs; each
must produce identical results on the interpreter and on the compiled
pipeline model (which shares semantics via the VM but exercises the whole
verify->schedule->estimate path).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.isa_reference import decode_program
from repro.ebpf.asm import assemble
from repro.ebpf.isa import Instruction, Opcode, Program
from repro.ebpf.vm import BpfVm
from repro.ebpf.verifier import Verifier
from repro.hdl import compile_program, HardwarePipeline
from repro.sim import Simulator

#: Registers the generator may use freely (r0 is the result).
SCRATCH_REGS = [0, 3, 4, 5]

_alu_op = st.sampled_from([
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.LSH, Opcode.RSH,
])


@st.composite
def straight_line_program(draw):
    """A random sequence of ALU ops over initialized registers."""
    # Initialize every scratch register first so the verifier accepts.
    instructions = [
        Instruction(Opcode.MOV, dst=reg,
                    imm=draw(st.integers(min_value=0, max_value=2**31 - 1)))
        for reg in SCRATCH_REGS
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        op = draw(_alu_op)
        dst = draw(st.sampled_from(SCRATCH_REGS))
        if draw(st.booleans()):
            src = draw(st.sampled_from(SCRATCH_REGS))
            instructions.append(
                Instruction(op, dst=dst, src=src, uses_reg_src=True))
        else:
            imm = draw(st.integers(min_value=0, max_value=2**31 - 1))
            if op in (Opcode.LSH, Opcode.RSH):
                imm = imm % 64
            instructions.append(Instruction(op, dst=dst, imm=imm))
    instructions.append(Instruction(Opcode.EXIT))
    return Program(instructions, name="random")


@settings(max_examples=60, deadline=None)
@given(program=straight_line_program())
def test_pipeline_matches_interpreter(program):
    assert Verifier().verify(program).ok
    vm_result = BpfVm(program).run()
    for fuse in (True, False):
        compiled = compile_program(program, fuse=fuse)
        sim = Simulator()
        pipeline = HardwarePipeline(sim, compiled)
        result = sim.run_process(pipeline.execute())
        assert result.return_value == vm_result.return_value


@settings(max_examples=40, deadline=None)
@given(program=straight_line_program())
def test_compile_metadata_consistent(program):
    """Schedule/area invariants hold for arbitrary programs."""
    compiled = compile_program(program)
    schedule = compiled.schedule
    # Every instruction is placed exactly once.
    assert schedule.issued == len(program.instructions)
    assert schedule.depth >= 1
    assert schedule.initiation_interval >= 1
    assert compiled.area.fmax_hz > 0
    assert compiled.area.resources.ffs > 0
    # Encoded Verilog mentions every stage.
    for index in range(schedule.depth):
        assert f"stage {index}" in compiled.verilog


@st.composite
def branchy_program(draw):
    """Random program with forward conditional branches over ctx fields.

    Structure: load two context words, then a cascade of compare/branch
    blocks each setting r0 differently, all exits verified reachable.
    """
    lines = ["ldxw r3, [r1+0]", "ldxw r4, [r1+4]", "mov r0, 0"]
    block_count = draw(st.integers(min_value=1, max_value=4))
    jump_ops = [Opcode.JEQ, Opcode.JNE, Opcode.JGT, Opcode.JGE, Opcode.JLT,
                Opcode.JLE]
    for index in range(block_count):
        op = draw(st.sampled_from(jump_ops))
        reg = draw(st.sampled_from(["r3", "r4"]))
        threshold = draw(st.integers(min_value=0, max_value=100))
        label = f"taken_{index}"
        lines.append(f"{op.value} {reg}, {threshold}, {label}")
        lines.append(f"add r0, {draw(st.integers(min_value=0, max_value=50))}")
        lines.append(f"{label}:")
        lines.append(f"add r0, {draw(st.integers(min_value=0, max_value=50))}")
    lines.append("exit")
    return assemble("\n".join(lines), name="branchy")


@settings(max_examples=40, deadline=None)
@given(
    program=branchy_program(),
    a=st.integers(min_value=0, max_value=200),
    b=st.integers(min_value=0, max_value=200),
)
def test_branchy_pipeline_matches_interpreter(program, a, b):
    context = a.to_bytes(4, "little") + b.to_bytes(4, "little")
    assert Verifier().verify(program).ok
    vm_result = BpfVm(program).run(context)
    compiled = compile_program(program)
    sim = Simulator()
    pipeline = HardwarePipeline(sim, compiled)
    result = sim.run_process(pipeline.execute(context))
    assert result.return_value == vm_result.return_value


@settings(max_examples=40, deadline=None)
@given(program=straight_line_program())
def test_binary_roundtrip_preserves_semantics(program):
    """encode -> decode -> run gives the same result (ISA correctness)."""
    restored = decode_program(program.encode())
    assert BpfVm(restored).run().return_value == BpfVm(program).run().return_value
