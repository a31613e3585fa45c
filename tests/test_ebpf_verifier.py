"""Tests for the eBPF verifier (simplified symbolic execution)."""

import pytest

from repro.ebpf import Verifier, assemble
from repro.ebpf.helpers import (
    HELPER_KTIME_GET_NS,
    HELPER_MAP_DELETE,
    HELPER_MAP_LOOKUP,
    HELPER_MAP_UPDATE,
)
from repro.ebpf.isa import (
    CONTEXT_POINTER,
    FRAME_POINTER,
    Instruction,
    Opcode,
    Program,
)
from repro.ebpf.verifier import require_verified
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

    @pytest.mark.parametrize("helper", [
        HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE, HELPER_MAP_DELETE])
    @pytest.mark.parametrize("fd", [
        f"call {HELPER_KTIME_GET_NS}",  # r1 clobbered: uninitialized
        "mov r1, r10",  # a pointer
    ], ids=["clobbered", "pointer"])
    def test_map_helper_fd_must_be_an_initialized_scalar(self, helper, fd):
        report = verify(f"""
            {fd}
            mov r2, r10
            add r2, -8
            mov r3, r10
            add r3, -16
            call {helper}
            exit
        """)
        assert report.reject_reason() == "pc 5: map helper needs a scalar map fd in r1"

    @pytest.mark.parametrize("value", [
        "mov r3, 64",  # a scalar
        "mov r3, r1",  # the context
        "mov r3, r10",  # one past the frame's end
        "mov r3, r10\nadd r3, -520",  # below it
        "ldxw r3, [r1+0]\nmov r4, r10\nadd r4, r3\nmov r3, r4",  # unknown offset
    ], ids=["scalar", "context", "frame-end", "below-frame", "unknown-offset"])
    def test_map_update_value_must_be_on_the_stack(self, value):
        report = verify(f"""
            {value}
            mov r1, 1
            mov r2, r10
            add r2, -8
            call {HELPER_MAP_UPDATE}
            mov r0, 0
            exit
        """)
        assert not report.ok
        assert report.reject_reason().endswith(
            "map update needs a value on the stack in r3")
        edge = verify(f"""
            mov r3, r10
            add r3, -512
            mov r1, 1
            mov r2, r10
            add r2, -8
            call {HELPER_MAP_UPDATE}
            exit
        """)
        assert edge.ok

    def test_only_an_lddw_half_is_an_lddw_jump_error(self, monkeypatch):
        """A jump target in an LDDW's second slot is found without asking
        ``Program.at_slot``: any other error it raises escapes."""
        def broken(program, pc):
            raise RuntimeError(f"slot {pc} unreadable")

        program = assemble("mov r0, 0\nja +0\nexit")
        monkeypatch.setattr(Program, "at_slot", broken)
        with pytest.raises(RuntimeError, match="unreadable"):
            Verifier().verify(program)

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


class TestFacts:
    """What ``require_verified`` returns: per pc, the facts every path
    agrees on, and the registers a later instruction reads."""

    def test_a_fact_holds_at_a_join_only_if_every_path_brings_it(self):
        facts = require_verified(assemble("""
            ldxb r6, [r1+0]
            mov r7, 3
            mov r8, r10
            jeq r6, 0, +2
            mov r7, 4
            add r8, -8
            mov r0, r7
            exit
        """))
        assert facts.state[0][1] == CONTEXT_POINTER
        assert facts.state[4][7:9] == (3, FRAME_POINTER)
        assert facts.state[6][6:9] == (None, None, None)
        assert facts.successors[3] == [6, 4]

    def test_a_null_check_splits_the_lookup_it_tests(self):
        facts = require_verified(assemble(f"""
            stdw [r10-8], 0
            mov r1, 1
            mov r2, r10
            add r2, -8
            call {HELPER_MAP_LOOKUP}
            mov r6, r0
            jeq r6, 0, +3
            add r6, 4
            ldxw r0, [r6+0]
            exit
            exit
        """))
        assert facts.state[5][:6] == ((4, None), 0, 0, 0, 0, 0)
        assert facts.state[7][6] == (4, 0) and facts.state[8][6] == (4, 4)
        assert facts.state[10][6] == 0

    def test_a_write_no_path_reads_is_dead(self):
        facts = require_verified(assemble("""
            ldxb r6, [r1+0]
            mov r7, r6
            mov r7, 1
            jeq r6, 0, +1
            mov r0, r7
            mov r0, r6
            exit
        """))
        assert 7 not in facts.live[2]  # ``mov r7, r6`` is overwritten
        assert 6 in facts.live[3] and 7 not in facts.live[3]  # r7 is known
        assert facts.live[0] == frozenset()  # r1 is the known context pointer
        assert 0 not in facts.live[5]


class TestReportMetadata:
    def test_states_explored_counts(self):
        report = verify("mov r0, 0\nexit")
        assert report.states_explored == 2

    def test_reject_reason_none_when_ok(self):
        assert verify("mov r0, 0\nexit").reject_reason() is None
