"""Test-only oracle of the verifier's facts and the optimized schedule.

``require_verified`` returns :class:`~repro.ebpf.verifier.Facts`; the
VM compiles from them and ``compile_program(..., optimize=True)``
schedules from them (:func:`repro.hdl.dataflow.build_blocks`).
:func:`check_facts` holds them to the reference interpreter
(``tests/ebpf_reference.py``) at every pc a run executes:

* the registers satisfy ``facts.state[pc]``: a known value equals the
  register, and a ``(k, off)`` pointer points ``off`` bytes into the
  value the lookup at pc k returned on this run;
* every register the rest of the run needs before writing it is in
  ``facts.live[pc]``, and no pc in ``facts.dead`` writes one;
* a write the optimized schedule leaves out is read later on the run,
  by what the schedule issues, only where the facts know its value.

What an instruction reads and writes is restated here, apart from
``repro.ebpf.isa.reads``/``writes``, so that a wrong operand rule shows.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.ebpf.helpers import HELPER_MAP_LOOKUP
from repro.ebpf.isa import (
    LOAD_OPS, Opcode, REGION_SHIFT, STORE_OPS, STORE_REG_OPS,
)
from repro.ebpf.verifier import require_verified
from repro.hdl.dataflow import build_blocks
from tests.ebpf_reference import ReferenceVm

_U64 = (1 << 64) - 1


def _operands(insn):
    """(base, others): the memory base *insn* reads, or None, and the other
    registers its semantics read."""
    op = insn.opcode
    if op is Opcode.CALL:
        return None, {1, 2, 3, 4, 5}
    if op is Opcode.EXIT:
        return None, {0}
    if op in LOAD_OPS:
        return insn.src, set()
    if op in STORE_OPS:
        return insn.dst, {insn.src} if op in STORE_REG_OPS else set()
    if op in (Opcode.LDDW, Opcode.JA):
        return None, set()
    others = {insn.src} if insn.uses_reg_src and op is not Opcode.NEG else set()
    return None, others if op is Opcode.MOV else others | {insn.dst}


def _written(insn):
    if insn.opcode is Opcode.CALL:
        return {0, 1, 2, 3, 4, 5}
    if insn.is_alu or insn.is_load or insn.opcode is Opcode.LDDW:
        return {insn.dst}
    return set()


def _pure(insn):
    return insn.is_alu or insn.opcode is Opcode.LDDW


def _value_pointer(fact):
    return isinstance(fact, tuple) and fact[1] is not None


def _needed(insn, state):
    """The registers whose run-time value *insn* needs: none the facts know,
    nor a memory base they know points into a map value."""
    base, regs = _operands(insn)
    if base is not None and not _value_pointer(state[base]):
        regs = regs | {base}
    return {reg for reg in regs if not isinstance(state[reg], int)}


def _holds(fact, value, lookups):
    """Whether a register holding *value* satisfies *fact*, where *lookups*
    maps the pc of each lookup that hit on this run to its value's region."""
    if fact is None:
        return True
    if isinstance(fact, int):
        return value == fact
    lookup, offset = fact
    if lookup not in lookups:
        return offset is None and value == 0
    start = lookups[lookup] << REGION_SHIFT
    return value in (0, start) if offset is None else value == (start + offset) & _U64


def check_run(program, facts, issued_at, trace):
    """The three checks of the module docstring over one run's trace."""
    lookups, dropped = {}, {}
    for step, (pc, regs) in enumerate(trace):
        insn = program.at_slot(pc)
        if step and regs[0]:
            before = program.at_slot(trace[step - 1][0])
            if before.opcode is Opcode.CALL and before.imm == HELPER_MAP_LOOKUP:
                lookups[trace[step - 1][0]] = regs[0] >> REGION_SHIFT
        state = facts.state[pc]
        for reg, (fact, value) in enumerate(zip(state, regs)):
            assert _holds(fact, value, lookups), (
                f"pc {pc}: r{reg} = {value:#x} breaks the fact {fact!r}")
        if pc in issued_at:
            base, others = _operands(issued_at[pc])
            for reg in (others | {base}) & dropped.keys():
                # The value itself held the fact: checked above.
                assert isinstance(state[reg], int) or _value_pointer(state[reg]), (
                    f"pc {pc} reads r{reg}, whose write at pc {dropped[reg]} "
                    f"was left out, and the facts do not know it")
        for reg in _written(insn):
            dropped.pop(reg, None)
        if _pure(insn) and pc not in issued_at:
            dropped[insn.dst] = pc
    need = set()
    for pc, _ in reversed(trace):
        insn = program.at_slot(pc)
        assert pc not in facts.dead or insn.dst not in need, (
            f"pc {pc}: the run reads r{insn.dst} after the write the facts "
            "call dead")
        if not (_pure(insn) and insn.dst not in need):
            need = (need - _written(insn)) | _needed(insn, facts.state[pc])
        assert need <= facts.live[pc], (
            f"pc {pc}: the run needs {sorted(need)}, live is {sorted(facts.live[pc])}")


def check_facts(program, contexts, maps):
    """Run *program* on each context, with *maps* throughout, and check
    every run."""
    facts = require_verified(program)
    issued_at = {pc: insn for block in build_blocks(program, facts)
                 for pc, insn in block.items()}
    vm = ReferenceVm(program, maps=maps)
    for context in contexts:
        trace = []
        try:
            vm.run(context, trace)
        except ReproError:
            pass  # a fault ends the run where the trace ends
        check_run(program, facts, issued_at, trace)
