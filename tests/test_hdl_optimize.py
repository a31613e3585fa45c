"""Tests for the warping-style optimizer (constant folding + DCE)."""

import pytest
from hypothesis import given, settings

from repro.ebpf import BpfVm, assemble
from repro.hdl import compile_program
from repro.hdl.optimize import optimize_program, optimize_straightline
from tests.test_hdl_equivalence import straight_line_program


class TestConstantFolding:
    def test_chain_folds_to_constant(self):
        program = assemble("""
            mov r0, 10
            add r0, 32
            exit
        """)
        optimized = optimize_straightline(program)
        # add folds into a mov; DCE removes the now-dead first mov.
        assert len(optimized.instructions) == 2
        assert BpfVm(optimized).run().return_value == 42

    def test_register_copy_propagates(self):
        program = assemble("""
            mov r3, 6
            mov r4, 7
            mov r0, r3
            mul r0, r4
            exit
        """)
        optimized = optimize_straightline(program)
        assert BpfVm(optimized).run().return_value == 42
        assert len(optimized.instructions) < len(program.instructions)

    def test_div_by_zero_folds_to_zero(self):
        program = assemble("""
            mov r0, 99
            mov r3, 0
            div r0, r3
            exit
        """)
        optimized = optimize_straightline(program)
        assert BpfVm(optimized).run().return_value == 0

    def test_unknown_input_not_folded(self):
        program = assemble("""
            ldxw r3, [r1+0]
            mov r0, r3
            add r0, 1
            exit
        """)
        optimized = optimize_straightline(program)
        context = (41).to_bytes(4, "little")
        assert BpfVm(optimized).run(context).return_value == 42

    def test_huge_constant_not_forced_into_mov(self):
        program = assemble("""
            lddw r0, 0x7fffffffffffffff
            add r0, 0
            exit
        """)
        optimized = optimize_straightline(program)
        assert BpfVm(optimized).run().return_value == 0x7FFFFFFFFFFFFFFF


class TestDeadCodeElimination:
    def test_unused_result_removed(self):
        program = assemble("""
            mov r3, 123
            mov r4, 456
            mul r4, r3
            mov r0, 7
            exit
        """)
        optimized = optimize_straightline(program)
        assert len(optimized.instructions) == 2  # mov r0 + exit
        assert BpfVm(optimized).run().return_value == 7

    def test_overwritten_value_removed(self):
        program = assemble("""
            mov r0, 1
            mov r0, 2
            exit
        """)
        optimized = optimize_straightline(program)
        assert len(optimized.instructions) == 2
        assert BpfVm(optimized).run().return_value == 2

    def test_stores_never_removed(self):
        program = assemble("""
            mov r3, 9
            stxdw [r10-8], r3
            ldxdw r0, [r10-8]
            exit
        """)
        optimized = optimize_straightline(program)
        assert any(i.opcode.value.startswith("stx") for i in optimized.instructions)
        assert BpfVm(optimized).run().return_value == 9

    def test_branchy_program_conservative(self):
        """Multi-block programs keep branch offsets valid."""
        source = """
            ldxw r3, [r1+0]
            mov r0, 0
            jeq r3, 5, five
            mov r0, 1
            exit
        five:
            mov r0, 2
            exit
        """
        program = assemble(source)
        optimized = optimize_program(program)
        for value, expected in ((5, 2), (6, 1)):
            ctx = value.to_bytes(4, "little")
            assert BpfVm(optimized).run(ctx).return_value == expected


class TestCompileIntegration:
    def test_optimized_pipeline_smaller(self):
        source = "\n".join(
            ["mov r0, 0"]
            + [f"add r0, {i}" for i in range(1, 11)]  # folds to one constant
            + ["exit"]
        )
        plain = compile_program(assemble(source), optimize=False, fuse=False)
        optimized = compile_program(assemble(source), optimize=True, fuse=False)
        assert optimized.schedule.depth < plain.schedule.depth
        assert optimized.area.resources.luts < plain.area.resources.luts

    def test_semantics_preserved_through_compile(self):
        source = "mov r3, 21\nmov r0, r3\nadd r0, r3\nexit"
        plain = compile_program(assemble(source), optimize=False)
        optimized = compile_program(assemble(source), optimize=True)
        from repro.sim import Simulator
        from repro.hdl import HardwarePipeline

        def run(compiled):
            sim = Simulator()
            return sim.run_process(HardwarePipeline(sim, compiled).execute())

        assert run(plain).return_value == run(optimized).return_value == 42


@settings(max_examples=60, deadline=None)
@given(program=straight_line_program())
def test_optimizer_preserves_semantics_property(program):
    """For arbitrary straight-line programs, optimization is invisible."""
    original = BpfVm(program).run().return_value
    optimized = optimize_straightline(program)
    assert BpfVm(optimized).run().return_value == original
    assert len(optimized.instructions) <= len(program.instructions)
