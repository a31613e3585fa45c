"""A simplified symbolic-execution verifier for eBPF programs.

Paper §2.2: "due to the simplified nature of the eBPF instruction set, it is
possible to verify and reason about its execution. The Linux kernel already
ships with an eBPF verifier (with simplified symbolic execution checks)."

This verifier walks every control-flow path with abstract register states.
Each register is ``(type, offset)`` where offset tracks pointer arithmetic
with known immediates (stack pointers are relative to r10):

* reads of uninitialized registers are rejected, and so is any write to
  the frame pointer r10 (ALU, LDDW or a load into it), as in the kernel;
* loads and stores require a pointer base; stack accesses are bounds-checked
  against the 512-byte frame, context accesses must be non-negative;
* a map helper takes a scalar fd in r1 and a pointer key in r2, and an
  update a value pointer in r3 inside the stack frame;
* a map-value pointer must be null-checked before dereference or arithmetic;
* back-edges (loops) are rejected, and exploration is bounded by a state
  budget (kernel-style);
* every path must reach EXIT with r0 initialized;
* division/modulo by a zero immediate, an opcode outside :class:`Opcode`
  and a call of a helper outside :data:`HELPERS` are rejected anywhere in
  the program, reached or not.

What a program it accepts knows at each pc is its :class:`Facts`: one
more pass over the verified control flow, in pc order, joins what every
path brings to a pc (a register's value when it is a known constant or a
stack or context pointer, the lookup a map-value pointer came from), and
one pass back says which registers a later instruction reads. No
accept/reject decision reads them.

:func:`require_verified` is the admission check: a :class:`BpfVm` and
``compile_program`` accept only what it passes, and a :class:`BpfVm`
compiles from the facts it returns.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.common.errors import VerificationError
from repro.ebpf.helpers import (
    HELPER_MAP_DELETE,
    HELPER_MAP_LOOKUP,
    HELPER_MAP_UPDATE,
    HELPERS,
)
from repro.ebpf.isa import (
    CONTEXT_POINTER, FRAME_POINTER, Instruction, MEM_SIZE, Opcode, Program,
    STACK_SIZE, STORE_REG_OPS, reads, writes,
)


class RegType(enum.Enum):
    """Abstract type of a register during symbolic execution."""

    UNINIT = "uninit"
    SCALAR = "scalar"
    PTR_STACK = "ptr_stack"
    PTR_CTX = "ptr_ctx"
    PTR_MAP_VALUE = "ptr_map_value"
    PTR_MAP_VALUE_OR_NULL = "ptr_map_value_or_null"

    @property
    def is_pointer(self) -> bool:
        return self in (
            RegType.PTR_STACK,
            RegType.PTR_CTX,
            RegType.PTR_MAP_VALUE,
        )


#: One abstract register: (type, known pointer offset or None).
RegState = Tuple[RegType, Optional[int]]
State = Tuple[RegState, ...]

#: Distinct (pc, state) pairs explored before a program is rejected.
MAX_STATES = 100_000

_UNINIT: RegState = (RegType.UNINIT, None)
_SCALAR: RegState = (RegType.SCALAR, None)


@dataclass
class VerifierError:
    """One rejection: the offending pc and a human-readable reason."""

    pc: int
    message: str

    def __str__(self) -> str:
        return f"pc {self.pc}: {self.message}"


#: What holds of one register at a pc on every path there: its u64 value,
#: ``(k, offset)`` for a pointer that far into the map value the lookup at
#: pc k returned, ``(k, None)`` for that lookup's r0 before its null
#: check, or None.
Fact = Union[None, int, Tuple[int, Optional[int]]]


@dataclass(frozen=True)
class Facts:
    """Per reachable pc: ``state`` the registers' facts before it, ``live``
    the registers whose value it or a later instruction reads, and
    ``successors`` the pcs a run goes to from it. A read of a register
    whose value is known is no read: the compiled code uses the value."""

    state: Dict[int, Tuple[Fact, ...]]
    live: Dict[int, FrozenSet[int]]
    successors: Dict[int, List[int]]


@dataclass
class VerifierReport:
    """The verdict plus exploration statistics."""

    ok: bool
    errors: List[VerifierError] = field(default_factory=list)
    states_explored: int = 0
    instructions_covered: int = 0

    def reject_reason(self) -> Optional[str]:
        return str(self.errors[0]) if self.errors else None


_INITIAL_STATE: State = tuple(
    [_UNINIT]  # r0
    + [(RegType.PTR_CTX, 0)]  # r1 = context pointer
    + [_SCALAR]  # r2 = context length
    + [_UNINIT] * 7  # r3-r9
    + [(RegType.PTR_STACK, 0)]  # r10 = frame pointer (offset 0 == frame end)
)


class Verifier:
    """Path-sensitive abstract interpreter over a :class:`Program`."""

    def verify(self, program: Program) -> VerifierReport:
        report = VerifierReport(ok=True)
        if len(program) == 0:
            report.ok = False
            report.errors.append(VerifierError(0, "empty program"))
            return report

        self._structural_checks(program, report)
        if not report.ok:
            return report

        seen: Set[Tuple[int, State]] = set()
        covered: Set[int] = set()
        worklist: List[Tuple[int, State]] = [(0, _INITIAL_STATE)]
        while worklist:
            pc, state = worklist.pop()
            if (pc, state) in seen:
                continue
            seen.add((pc, state))
            if len(seen) > MAX_STATES:
                report.ok = False
                report.errors.append(
                    VerifierError(pc, "state budget exhausted (unbounded loop?)")
                )
                break
            insn = program.at_slot(pc)
            covered.add(pc)
            successors = self._step(pc, insn, state, report)
            if not report.ok:
                break
            for next_pc, next_state in successors:
                if next_pc <= pc:
                    report.ok = False
                    report.errors.append(
                        VerifierError(pc, "back-edge detected; loops are rejected")
                    )
                    break
                worklist.append((next_pc, next_state))
            if not report.ok:
                break
        report.states_explored = len(seen)
        report.instructions_covered = len(covered)
        return report

    # -- structural checks -----------------------------------------------------
    def _structural_checks(self, program: Program, report: VerifierReport) -> None:
        length = len(program)
        ends = itertools.accumulate(insn.slots for insn in program)
        lddw_halves = {end - 1 for insn, end in zip(program, ends) if insn.slots == 2}
        pc = 0
        for insn in program:
            if not isinstance(insn.opcode, Opcode):
                report.ok = False
                report.errors.append(
                    VerifierError(pc, f"unknown opcode {insn.opcode!r}")
                )
            if insn.is_cond_jump or insn.opcode is Opcode.JA:
                target = pc + 1 + insn.offset
                if not 0 <= target < length:
                    report.ok = False
                    report.errors.append(
                        VerifierError(pc, f"jump target {target} out of range")
                    )
                elif target in lddw_halves:
                    report.ok = False
                    report.errors.append(
                        VerifierError(pc, "jump into the middle of LDDW")
                    )
            if insn.opcode is Opcode.CALL and insn.imm not in HELPERS:
                report.ok = False
                report.errors.append(
                    VerifierError(pc, f"call to unknown helper {insn.imm}")
                )
            if (
                insn.opcode in (Opcode.DIV, Opcode.MOD)
                and not insn.uses_reg_src
                and insn.imm == 0
            ):
                report.ok = False
                report.errors.append(VerifierError(pc, "division by zero immediate"))
            pc += insn.slots
        last = program.instructions[-1]
        if last.opcode not in (Opcode.EXIT, Opcode.JA):
            report.ok = False
            report.errors.append(
                VerifierError(length - 1, "program can fall off the end")
            )

    # -- symbolic step ---------------------------------------------------------
    def _step(
        self,
        pc: int,
        insn: Instruction,
        state: State,
        report: VerifierReport,
    ) -> List[Tuple[int, State]]:
        regs = list(state)
        op = insn.opcode

        def fail(message: str) -> List[Tuple[int, State]]:
            report.ok = False
            report.errors.append(VerifierError(pc, message))
            return []

        def require_init(reg: int) -> bool:
            if regs[reg][0] is RegType.UNINIT:
                fail(f"read of uninitialized register r{reg}")
                return False
            return True

        if op is Opcode.EXIT:
            if regs[0][0] is RegType.UNINIT:
                return fail("exit with uninitialized r0")
            return []

        if op is Opcode.CALL:
            if insn.imm in (HELPER_MAP_LOOKUP, HELPER_MAP_UPDATE, HELPER_MAP_DELETE):
                if regs[1][0] is not RegType.SCALAR:
                    return fail("map helper needs a scalar map fd in r1")
                if not regs[2][0].is_pointer:
                    return fail("map helper needs a pointer key in r2")
                value_type, value_offset = regs[3]
                if insn.imm == HELPER_MAP_UPDATE and not (
                    value_type is RegType.PTR_STACK and value_offset is not None
                    and -STACK_SIZE <= value_offset < 0
                ):
                    return fail("map update needs a value on the stack in r3")
            regs[0] = (
                (RegType.PTR_MAP_VALUE_OR_NULL, 0)
                if insn.imm == HELPER_MAP_LOOKUP
                else _SCALAR
            )
            for clobbered in range(1, 6):
                regs[clobbered] = _UNINIT
            return [(pc + 1, tuple(regs))]

        if insn.dst == 10 and (op is Opcode.LDDW or insn.is_alu or insn.is_load):
            return fail("frame pointer r10 is read only")

        if op is Opcode.LDDW:
            regs[insn.dst] = _SCALAR
            return [(pc + 2, tuple(regs))]

        if insn.is_alu:
            return self._step_alu(pc, insn, regs, fail, require_init)

        if insn.is_load:
            base_type, base_offset = regs[insn.src]
            message = self._check_access(base_type, base_offset, insn.offset, MEM_SIZE[op])
            if message:
                return fail(message)
            regs[insn.dst] = _SCALAR
            return [(pc + 1, tuple(regs))]

        if insn.is_store:
            base_type, base_offset = regs[insn.dst]
            message = self._check_access(base_type, base_offset, insn.offset, MEM_SIZE[op])
            if message:
                return fail(message)
            if op.value.startswith("stx") and not require_init(insn.src):
                return []
            return [(pc + 1, tuple(regs))]

        if op is Opcode.JA:
            return [(pc + 1 + insn.offset, tuple(regs))]

        # A conditional jump: the structural checks admit no other opcode.
        if not require_init(insn.dst):
            return []
        if insn.uses_reg_src and not require_init(insn.src):
            return []
        taken = list(regs)
        fallthrough = list(regs)
        # Null-check refinement: `jeq rX, 0` / `jne rX, 0` on a
        # maybe-null map value splits into null/non-null branches.
        if (
            not insn.uses_reg_src
            and insn.imm == 0
            and regs[insn.dst][0] is RegType.PTR_MAP_VALUE_OR_NULL
        ):
            if op is Opcode.JEQ:
                taken[insn.dst] = _SCALAR  # the null branch
                fallthrough[insn.dst] = (RegType.PTR_MAP_VALUE, 0)
            elif op is Opcode.JNE:
                taken[insn.dst] = (RegType.PTR_MAP_VALUE, 0)
                fallthrough[insn.dst] = _SCALAR
        return [
            (pc + 1 + insn.offset, tuple(taken)),
            (pc + 1, tuple(fallthrough)),
        ]

    def _step_alu(self, pc, insn, regs, fail, require_init):
        op = insn.opcode
        if op is Opcode.MOV:
            if insn.uses_reg_src:
                if not require_init(insn.src):
                    return []
                regs[insn.dst] = regs[insn.src]
            else:
                regs[insn.dst] = _SCALAR
            return [(pc + 1, tuple(regs))]
        if op is Opcode.NEG:
            if not require_init(insn.dst):
                return []
            if regs[insn.dst][0] is not RegType.SCALAR:
                return fail("NEG on a pointer")
            return [(pc + 1, tuple(regs))]
        if not require_init(insn.dst):
            return []
        if insn.uses_reg_src and not require_init(insn.src):
            return []
        src_type = regs[insn.src][0] if insn.uses_reg_src else RegType.SCALAR
        dst_type, dst_offset = regs[insn.dst]
        if dst_type is RegType.PTR_MAP_VALUE_OR_NULL:
            return fail("arithmetic on a map value that may be null")
        if dst_type.is_pointer:
            if op not in (Opcode.ADD, Opcode.SUB) or src_type is not RegType.SCALAR:
                return fail(f"illegal pointer arithmetic ({op.value})")
            if insn.uses_reg_src or dst_offset is None:
                # Adding an unknown scalar: the offset becomes unknown.
                regs[insn.dst] = (dst_type, None)
            else:
                delta = insn.imm if op is Opcode.ADD else -insn.imm
                regs[insn.dst] = (dst_type, dst_offset + delta)
            return [(pc + 1, tuple(regs))]
        if src_type is not RegType.SCALAR:
            return fail("pointer used as scalar operand")
        regs[insn.dst] = _SCALAR
        return [(pc + 1, tuple(regs))]

    def _check_access(
        self,
        base_type: RegType,
        base_offset: Optional[int],
        insn_offset: int,
        size: int,
    ) -> Optional[str]:
        """Returns an error message, or None if the access is legal."""
        if base_type is RegType.PTR_MAP_VALUE_OR_NULL:
            return "map value dereferenced without a null check"
        if not base_type.is_pointer:
            return f"memory access via non-pointer ({base_type.value})"
        if base_offset is None:
            return "access via pointer with unknown offset"
        effective = base_offset + insn_offset
        if base_type is RegType.PTR_STACK:
            # Relative to r10 (frame end): the legal window is [-512, 0).
            if not (-STACK_SIZE <= effective and effective + size <= 0):
                return (
                    f"stack access [{effective}, {effective + size}) outside "
                    f"[-{STACK_SIZE}, 0)"
                )
        elif effective < 0:
            return f"negative {base_type.value} offset {effective}"
        return None


# -- facts of an accepted program -----------------------------------------------

_U64 = (1 << 64) - 1
#: A map-value offset is tracked while it stays this close to 0.
_VALUE_OFFSET_LIMIT = 1 << 31
#: At pc 0 a run has zeroed r0 and r3-r9; r2 holds the context's length.
_ENTRY_FACTS = (0, CONTEXT_POINTER, None, 0, 0, 0, 0, 0, 0, 0, FRAME_POINTER)


def _join(a: Fact, b: Fact) -> Fact:
    """A fact holds where two paths meet only if it holds on both."""
    return a if a == b else None


def _after(pc: int, insn: Instruction, state: Tuple[Fact, ...]):
    """(successor pc, facts there) along each edge out of *insn*: MOV and
    LDDW set a value, ADD/SUB of an immediate shift it, a CALL zeroes
    r1-r5, and a null check splits a lookup's r0 into 0 and the value."""
    regs, op, dst = list(state), insn.opcode, insn.dst
    fact, after = regs[dst], pc + insn.slots
    if op is Opcode.CALL:
        regs[0:6] = [(pc, None) if insn.imm == HELPER_MAP_LOOKUP else None] + [0] * 5
    elif op is Opcode.LDDW or (op is Opcode.MOV and not insn.uses_reg_src):
        regs[dst] = insn.imm & _U64
    elif op is Opcode.MOV:
        regs[dst] = regs[insn.src]
    elif op in (Opcode.ADD, Opcode.SUB) and not insn.uses_reg_src:
        delta = insn.imm if op is Opcode.ADD else -insn.imm
        if isinstance(fact, int):
            regs[dst] = (fact + delta) & _U64
        elif fact is not None and fact[1] is not None and (
                abs(fact[1] + delta) < _VALUE_OFFSET_LIMIT):
            regs[dst] = fact[0], fact[1] + delta
        else:
            regs[dst] = None
    elif insn.is_alu or insn.is_load:
        regs[dst] = None
    if op is Opcode.EXIT:
        return []
    if op is Opcode.JA:
        return [(after + insn.offset, regs)]
    if not insn.is_cond_jump:
        return [(after, regs)]
    taken, fallthrough = list(regs), regs
    if (op in (Opcode.JEQ, Opcode.JNE) and not insn.uses_reg_src and insn.imm == 0
            and isinstance(fact, tuple) and fact[1] is None):
        null, value = (taken, fallthrough) if op is Opcode.JEQ else (fallthrough, taken)
        null[dst], value[dst] = 0, (fact[0], 0)
    return [(after + insn.offset, taken), (after, fallthrough)]


def _reads(insn: Instruction, state: Tuple[Fact, ...]) -> Set[int]:
    """The registers whose value *insn* needs at run time: its operands
    (:func:`~repro.ebpf.isa.reads`), but none whose value is known, nor a
    memory base known to point into a map value."""
    regs = reads(insn)
    if insn.is_load or insn.is_store:
        fact = state[insn.src if insn.is_load else insn.dst]
        if isinstance(fact, tuple) and fact[1] is not None:
            regs = {insn.src} if insn.opcode in STORE_REG_OPS else set()
    return {reg for reg in regs if not isinstance(state[reg], int)}


def _facts(program: Program) -> Facts:
    """One pass in pc order joins the facts of every edge into a pc (each
    edge a run can take goes forward), one pass back finds what is live.
    A write no later instruction reads is dropped, and its reads with it."""
    arriving: Dict[int, List[Tuple[Fact, ...]]] = {0: [_ENTRY_FACTS]}
    state, successors, live = {}, {}, {}
    for pc in range(len(program)):
        if pc in arriving:
            state[pc] = functools.reduce(
                lambda a, b: tuple(map(_join, a, b)), arriving.pop(pc))
            edges = _after(pc, program.at_slot(pc), state[pc])
            successors[pc] = [target for target, _ in edges]
            for target, regs in edges:
                arriving.setdefault(target, []).append(tuple(regs))
    for pc in reversed(list(state)):
        insn = program.at_slot(pc)
        out = frozenset().union(*(live[target] for target in successors[pc]))
        pure = insn.is_alu or insn.opcode is Opcode.LDDW
        if pure and insn.dst not in out:
            live[pc] = out
            continue
        live[pc] = out.difference(writes(insn)) | _reads(insn, state[pc])
    return Facts(state, live, successors)


def require_verified(program: Program) -> Facts:
    """Raise :class:`VerificationError`, naming the first pc rejected, unless
    the verifier accepts *program*: the one admission check of the VM and
    the hardware compiler. Returns the accepted program's facts."""
    report = Verifier().verify(program)
    if not report.ok:
        raise VerificationError(
            f"program {program.name!r} rejected: {report.reject_reason()}"
        )
    return _facts(program)
