"""Tests for the eBPF verifier (simplified symbolic execution)."""

import pytest

from repro.ebpf import Verifier, assemble
from repro.ebpf.helpers import HELPER_MAP_LOOKUP
from repro.ebpf.isa import Instruction, Opcode, Program
from repro.eval.compiler import program_corpus


def verify(source):
    return Verifier().verify(assemble(source))


class TestAcceptance:
    def test_minimal_program(self):
        report = verify("mov r0, 0\nexit")
        assert report.ok
        assert report.instructions_covered == 2

    def test_branches_both_explored(self):
        report = verify("""
            mov r0, 0
            jeq r1, 0, done
            add r0, 1
        done:
            exit
        """)
        assert report.ok
        assert report.instructions_covered == 4

    def test_stack_roundtrip(self):
        report = verify("""
            mov r1, 5
            stxdw [r10-8], r1
            ldxdw r0, [r10-8]
            exit
        """)
        assert report.ok

    def test_copied_stack_pointer_with_offset(self):
        """The standard map-key pattern: mov r2, r10; add r2, -8."""
        report = verify("""
            mov r1, 1
            stxdw [r10-8], r1
            mov r2, r10
            add r2, -8
            ldxdw r0, [r2+0]
            exit
        """)
        assert report.ok

    def test_checked_map_lookup(self):
        report = verify(f"""
            mov r1, 7
            stxdw [r10-8], r1
            mov r1, 1
            mov r2, r10
            sub r2, 8
            call {HELPER_MAP_LOOKUP}
            jeq r0, 0, miss
            ldxdw r0, [r0+0]
            exit
        miss:
            mov r0, 0
            exit
        """)
        assert report.ok

    def test_context_read(self):
        assert verify("ldxw r0, [r1+0]\nexit").ok


class TestRejection:
    def test_empty_program(self):
        report = Verifier().verify(assemble(""))
        assert not report.ok

    def test_uninitialized_register_read(self):
        report = verify("mov r0, r3\nexit")
        assert not report.ok
        assert "uninitialized" in report.reject_reason()

    def test_exit_without_r0(self):
        report = verify("exit")
        assert not report.ok
        assert "r0" in report.reject_reason()

    def test_fall_off_the_end(self):
        report = verify("mov r0, 1")
        assert not report.ok
        assert "fall off" in report.reject_reason()

    def test_jump_out_of_range(self):
        report = verify("mov r0, 0\nja +10\nexit")
        assert not report.ok
        assert "out of range" in report.reject_reason()

    def test_jump_into_lddw(self):
        report = verify("""
            mov r0, 0
            ja +1
            lddw r1, 0x1122334455667788
            exit
        """)
        assert not report.ok
        assert "LDDW" in report.reject_reason()

    def test_unknown_helper(self):
        report = verify("call 1234\nexit")
        assert not report.ok
        assert "unknown helper" in report.reject_reason()

    def test_unknown_opcode_rejected_even_unreached(self):
        """An opcode outside the enum is named by its pc wherever it sits,
        like an unknown helper, so every instruction a VM compiles has a
        known opcode."""
        program = Program([
            Instruction(Opcode.MOV, dst=0, imm=0),
            Instruction(Opcode.EXIT),
            Instruction("bogus"),  # the dataclass does not police its opcode
            Instruction(Opcode.EXIT),
        ])
        report = Verifier().verify(program)
        assert not report.ok
        assert report.reject_reason() == "pc 2: unknown opcode 'bogus'"

    def test_div_by_zero_imm(self):
        report = verify("mov r0, 1\ndiv r0, 0\nexit")
        assert not report.ok
        assert "division" in report.reject_reason()

    def test_unchecked_map_value_deref(self):
        report = verify(f"""
            mov r1, 1
            stxdw [r10-8], r1
            mov r1, 1
            mov r2, r10
            sub r2, 8
            call {HELPER_MAP_LOOKUP}
            ldxdw r0, [r0+0]
            exit
        """)
        assert not report.ok
        assert "null check" in report.reject_reason()

    def test_stack_overflow_access(self):
        report = verify("ldxdw r0, [r10-520]\nexit")
        assert not report.ok
        assert "stack access" in report.reject_reason()

    def test_stack_positive_access(self):
        report = verify("mov r1, 1\nstxdw [r10+8], r1\nmov r0, 0\nexit")
        assert not report.ok

    def test_memory_access_via_scalar(self):
        report = verify("mov r1, 1000\nldxdw r0, [r1+0]\nexit")
        assert not report.ok
        assert "non-pointer" in report.reject_reason()

    def test_pointer_multiplication(self):
        report = verify("mov r1, r10\nmul r1, 2\nmov r0, 0\nexit")
        assert not report.ok
        assert "pointer arithmetic" in report.reject_reason()

    def test_pointer_with_unknown_offset_access(self):
        report = verify("""
            ldxw r2, [r1+0]
            mov r3, r10
            add r3, r2
            ldxdw r0, [r3+0]
            exit
        """)
        assert not report.ok
        assert "unknown offset" in report.reject_reason()

    def test_loop_rejected_by_default(self):
        report = verify("""
            mov r0, 10
        top:
            sub r0, 1
            jne r0, 0, top
            exit
        """)
        assert not report.ok
        assert "back-edge" in report.reject_reason()

    def test_negative_context_offset(self):
        report = verify("ldxw r0, [r1-4]\nexit")
        assert not report.ok

    @pytest.mark.parametrize("write", [
        "mov r10, r1", "add r10, 8", "neg r10", "lddw r10, 0x10000000001f8",
        "ldxdw r10, [r1+0]",
    ])
    def test_frame_pointer_is_read_only(self, write):
        """As in the kernel: no ALU op, LDDW or load may write r10, even one
        that leaves it a valid pointer."""
        report = verify(f"{write}\nmov r0, 0\nexit")
        assert not report.ok
        assert report.reject_reason() == "pc 0: frame pointer r10 is read only"

    def test_no_corpus_program_writes_the_frame_pointer(self):
        """The rule moves no E10 verdict: each of the nine corpus programs
        still gets the verdict it expects, for a reason other than r10."""
        corpus = program_corpus()
        assert len(corpus) == 9
        for name, program, expected in corpus:
            report = Verifier().verify(program)
            assert report.ok == expected, name
            assert "r10" not in (report.reject_reason() or ""), name


class TestReportMetadata:
    def test_states_explored_counts(self):
        report = verify("mov r0, 0\nexit")
        assert report.states_explored == 2

    def test_reject_reason_none_when_ok(self):
        assert verify("mov r0, 0\nexit").reject_reason() is None
