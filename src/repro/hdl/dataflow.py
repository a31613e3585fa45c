"""Basic blocks and the dataflow graph inside each, over eBPF programs.

Parallelism extraction (paper §2.2: "a set of open-source compilers for
parallelism extraction") starts here: basic blocks give the control
skeleton; the per-block dataflow graph exposes which instructions have no
mutual dependencies and can issue in the same hardware stage.

The compiler runs no analysis of its own. Blocks split at
:func:`repro.ebpf.isa.leaders`, the operands an instruction reads and
writes are :func:`repro.ebpf.isa.reads` and :func:`~repro.ebpf.isa.writes`,
and the optimized schedule issues what the verifier's
:class:`~repro.ebpf.verifier.Facts` say a run needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.ebpf.isa import Instruction, Opcode, Program, leaders, reads, writes
from repro.ebpf.verifier import Facts

_U64 = (1 << 64) - 1
#: MOV's immediate is 32 bits, sign-extended to 64.
_IMM_LIMIT = 1 << 31


def _issued(insn: Instruction, pc: int, facts: Facts) -> Optional[Instruction]:
    """What the optimized pipeline issues for the reachable *insn* at *pc*:
    nothing for a dead write (``facts.dead``) but a load, which still
    checks its bounds, ``mov dst, K`` for an ALU op or LDDW whose result
    is a known K that fits an immediate, else *insn*."""
    if pc in facts.dead:
        return insn if insn.is_load else None
    if not (insn.is_alu or insn.opcode is Opcode.LDDW):
        return insn
    value = facts.state[pc + insn.slots][insn.dst]
    if not isinstance(value, int) or _IMM_LIMIT <= value <= _U64 - _IMM_LIMIT:
        return insn
    return Instruction(Opcode.MOV, dst=insn.dst,
                       imm=value if value < _IMM_LIMIT else value - _U64 - 1)


def build_blocks(program: Program,
                 facts: Optional[Facts] = None) -> List[Dict[int, Instruction]]:
    """The instructions each basic block issues, by pc. Without *facts*,
    every instruction as written; with them, only the reachable ones, less
    the writes no run needs (in hardware, a value that nothing reads or
    that every reader knows is a wire), and known results as constants.

    >>> from repro.apps.fail2ban import build_fail2ban_program
    >>> from repro.ebpf.verifier import require_verified
    >>> program = build_fail2ban_program()
    >>> [sum(map(len, build_blocks(program, facts)))
    ...  for facts in (None, require_verified(program))]
    [27, 15]
    """
    starts = set(leaders(program))
    blocks: List[Dict[int, Instruction]] = []
    pc = 0
    for insn in program:
        if pc in starts:
            blocks.append({})
        issued = insn if facts is None else (
            _issued(insn, pc, facts) if pc in facts.state else None)
        if issued is not None:
            blocks[-1][pc] = issued
        pc += insn.slots
    return [block for block in blocks if block]


@dataclass
class DataflowGraph:
    """RAW/WAR/WAW dependencies between the instructions of one block."""

    instructions: Sequence[Instruction]
    #: edges[i] = set of instruction indices that i depends on
    edges: Dict[int, Set[int]]


def touches_memory(insn: Instruction) -> bool:
    """A load, a store or a helper call: what takes a memory port."""
    return insn.is_load or insn.is_store or insn.opcode is Opcode.CALL


def build_dfg(instructions: Sequence[Instruction]) -> DataflowGraph:
    """Dependency edges within one block (memory ops stay ordered)."""
    edges: Dict[int, Set[int]] = {i: set() for i in range(len(instructions))}
    last_writer: Dict[int, int] = {}
    last_readers: Dict[int, List[int]] = {}
    last_memory: Optional[int] = None
    for i, insn in enumerate(instructions):
        read, written = reads(insn), writes(insn)
        for reg in read:  # RAW
            if reg in last_writer:
                edges[i].add(last_writer[reg])
        for reg in written:  # WAW and WAR
            if reg in last_writer:
                edges[i].add(last_writer[reg])
            for reader in last_readers.get(reg, ()):
                if reader != i:
                    edges[i].add(reader)
        if touches_memory(insn):
            if last_memory is not None:
                edges[i].add(last_memory)
            last_memory = i
        for reg in read:
            last_readers.setdefault(reg, []).append(i)
        for reg in written:
            last_writer[reg] = i
            last_readers[reg] = []
    return DataflowGraph(instructions=instructions, edges=edges)
