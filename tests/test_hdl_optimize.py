"""The optimized schedule, and the verifier's facts it is built from.

``compile_program(..., optimize=True)`` issues only what the facts that
``require_verified`` returns say a run needs
(:func:`repro.hdl.dataflow.build_blocks`): no unreachable pc, no ALU op
or LDDW whose destination is not live at its successor, and a known
result as ``mov dst, K``; the pipeline still runs the program as
written. ``tests/facts_reference.py`` holds the facts and the schedule to
the reference interpreter, run by run.
"""

import dataclasses

import pytest
from hypothesis import given, settings

import repro.ebpf.verifier as verifier_module
import repro.hdl.dataflow as dataflow_module
from repro.apps.fail2ban import BAN_MAP_FD, PacketRecord
from repro.ebpf import BpfVm, HashMap, Opcode, assemble
from repro.ebpf.helpers import HELPER_MAP_LOOKUP, HELPER_TRACE_PRINTK
from repro.ebpf.verifier import require_verified
from repro.eval.compiler import program_corpus
from repro.hdl import HardwarePipeline, build_blocks, compile_program
from repro.sim import Simulator
from tests.facts_reference import check_facts
from tests.test_hdl_equivalence import straight_line_program
from tests.test_ebpf_translate import (
    HASH_FD, fact_kept_where_one_path_lacks_it, fresh_maps,
)


def issued(source, context=b""):
    """The optimized schedule's issue count for *source*, and what its
    pipeline returns on *context*."""
    compiled = compile_program(assemble(source), optimize=True)
    sim = Simulator()
    result = sim.run_process(HardwarePipeline(sim, compiled).execute(context))
    return compiled.schedule.issued, result.return_value


def issued_instructions(source):
    program = assemble(source)
    blocks = build_blocks(program, require_verified(program))
    return [insn for block in blocks for insn in block.values()]


class TestConstantFolding:
    def test_chain_folds_to_constant(self):
        """EXIT knows r0 is 42: the MOV and the ADD are wires."""
        assert issued("mov r0, 10\nadd r0, 32\nexit") == (1, 42)

    def test_register_copy_propagates(self):
        """The MUL reads two known registers: only it and EXIT issue."""
        source = "mov r3, 6\nmov r4, 7\nmov r0, r3\nmul r0, r4\nexit"
        assert issued(source) == (2, 42)

    def test_div_by_zero_folds_to_zero(self):
        """Both operands of the DIV are known; its result is not."""
        assert issued("mov r0, 99\nmov r3, 0\ndiv r0, r3\nexit") == (2, 0)

    def test_unknown_input_not_folded(self):
        source = "ldxw r3, [r1+0]\nmov r0, r3\nadd r0, 1\nexit"
        assert issued(source, (41).to_bytes(4, "little")) == (4, 42)

    def test_huge_constant_not_forced_into_mov(self):
        """A kept LDDW whose value fits no immediate stays an LDDW; one
        that fits issues as a MOV."""
        branchy = "ldxb r6, [r1+0]\nlddw r0, {}\njeq r6, 0, +1\nmov r0, 1\nexit"
        huge = issued_instructions(branchy.format("0x7fffffffffffffff"))
        assert huge[1].opcode is Opcode.LDDW and huge[1].imm == 0x7FFFFFFFFFFFFFFF
        small = issued_instructions(branchy.format("0xfffffffffffffffe"))
        assert (small[1].opcode, small[1].dst, small[1].imm) == (Opcode.MOV, 0, -2)


class TestDeadCodeElimination:
    def test_unused_result_removed(self):
        source = "mov r3, 123\nmov r4, 456\nmul r4, r3\nmov r0, 7\nexit"
        assert issued(source) == (1, 7)

    def test_overwritten_value_removed(self):
        assert issued("mov r0, 1\nmov r0, 2\nexit") == (1, 2)

    def test_stores_never_removed(self):
        source = "mov r3, 9\nstxdw [r10-8], r3\nldxdw r0, [r10-8]\nexit"
        kept = issued_instructions(source)
        assert [insn.opcode for insn in kept] == [Opcode.STXDW, Opcode.LDXDW,
                                                  Opcode.EXIT]
        assert issued(source) == (3, 9)

    def test_a_write_every_path_overwrites_is_left_out(self):
        """``mov r0, 0`` is overwritten on both paths, and each exit knows
        its r0; the pipeline still runs the program as written."""
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
        for value, expected in ((5, 2), (6, 1)):
            assert issued(source, value.to_bytes(4, "little")) == (4, expected)

    def test_unreachable_code_is_not_issued(self):
        assert issued("mov r0, 1\nja +1\nmul r0, 3\nexit")[0] == 2


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
        program = assemble("mov r3, 21\nmov r0, r3\nadd r0, r3\nexit")
        plain = compile_program(program, optimize=False)
        optimized = compile_program(program, optimize=True)
        assert optimized.program is plain.program is program

        def run(compiled):
            sim = Simulator()
            return sim.run_process(HardwarePipeline(sim, compiled).execute())

        assert run(plain).return_value == run(optimized).return_value == 42


@settings(max_examples=60, deadline=None)
@given(program=straight_line_program())
def test_optimizer_preserves_semantics_property(program):
    """For arbitrary straight-line programs, optimization is invisible:
    the optimized pipeline returns what the interpreter returns, issues
    no more than the plain one, and holds to the facts oracle."""
    original = BpfVm(program).run().return_value
    plain = compile_program(program, optimize=False)
    optimized = compile_program(program, optimize=True)
    sim = Simulator()
    result = sim.run_process(HardwarePipeline(sim, optimized).execute())
    assert result.return_value == original
    assert optimized.schedule.issued <= plain.schedule.issued
    assert plain.schedule.issued == len(program.instructions)
    check_facts(program, [b""], {})


# -- the facts oracle (tests/facts_reference.py) --------------------------------
#
# ``test_translated_vm_matches_the_reference`` runs it on every generated
# program; here it runs on the E10 corpus, and each mutant below breaks
# one rule the facts or the schedule rest on, on a pinned program.


@pytest.mark.parametrize("name", [name for name, _, ok in program_corpus() if ok])
def test_the_facts_hold_on_the_corpus(name):
    program = {entry[0]: entry[1] for entry in program_corpus()}[name]
    if name != "fail2ban":
        check_facts(program, [port.to_bytes(4, "little") + bytes(28)
                              for port in (80, 443, 22)], fresh_maps())
        return
    packets = [PacketRecord(source, failed, 64)
               for source in (1, 2, 1, 1, 1) for failed in (True, False)]
    check_facts(program, [packet.context for packet in packets],
                {BAN_MAP_FD: HashMap(8, 8, max_entries=64)})


real_after, real_reads = verifier_module._after, verifier_module._reads
real_issued = dataflow_module._issued


def lookup_named_by_the_pc_before(pc, insn, state):
    edges = real_after(pc, insn, state)
    if insn.opcode is Opcode.CALL and insn.imm == HELPER_MAP_LOOKUP:
        for _, regs in edges:
            regs[0] = (pc - 1, None)
    return edges


def helper_arguments_unread(insn, state):
    return set() if insn.opcode is Opcode.CALL else real_reads(insn, state)


def dropped_by_its_own_pcs_liveness(insn, pc, facts):
    if insn.is_alu and insn.dst not in facts.live[pc]:
        facts = dataclasses.replace(facts, dead=facts.dead | {pc})
    return real_issued(insn, pc, facts)


#: name -> (module, rule, mutant, program, contexts)
ORACLE_MUTANTS = {
    # r6 is 5 on one path into pc 3 and the loaded byte on the other.
    "a join keeps a fact one path lacks": (
        verifier_module, "_join", fact_kept_where_one_path_lacks_it,
        "ldxb r6, [r1+0]\njeq r6, 0, +1\nmov r6, 5\nmov r0, r6\nexit",
        [b"\x00", b"\x03"]),
    # The trace helper reads r3, which holds the context's first byte.
    "liveness misses a helper's arguments": (
        verifier_module, "_reads", helper_arguments_unread,
        f"ldxb r3, [r1+0]\ncall {HELPER_TRACE_PRINTK}\nmov r0, 0\nexit",
        [b"\x05"]),
    # The lookup at pc 4 hits: r0 points into the value it returned.
    "a map-value fact names the wrong lookup": (
        verifier_module, "_after", lookup_named_by_the_pc_before,
        f"stdw [r10-8], 0\nmov r1, {HASH_FD}\nmov r2, r10\nadd r2, -8\n"
        f"call {HELPER_MAP_LOOKUP}\njeq r0, 0, +1\nldxdw r0, [r0+0]\nexit",
        [b""]),
    # ``mov r6, r7`` does not read r6; ``mov r0, r6`` does.
    "a write is dropped by liveness at its own pc": (
        dataflow_module, "_issued", dropped_by_its_own_pcs_liveness,
        "ldxb r7, [r1+0]\nmov r6, r7\nmov r0, r6\nexit", [b"\x05"]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MUTANTS))
def test_each_mutant_of_the_facts_is_killed(name, monkeypatch):
    module, rule, mutant, source, contexts = ORACLE_MUTANTS[name]
    program = assemble(source)
    check_facts(program, contexts, fresh_maps())
    monkeypatch.setattr(module, rule, mutant)
    with pytest.raises(AssertionError):
        check_facts(program, contexts, fresh_maps())
