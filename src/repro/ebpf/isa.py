"""The eBPF instruction set: encoding and classification.

Instructions follow the documented eBPF ISA: 64-bit fixed-width encoding
with ``(opcode:8, dst:4, src:4, offset:16, imm:32)`` fields, eleven 64-bit
registers (r0-r10), and a 512-byte stack. LDDW (64-bit immediate load)
occupies two instruction slots, as on real hardware.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional

from repro.common.errors import ProtocolError

BPF_REG_COUNT = 11
STACK_SIZE = 512

#: A run's segmented pointer space: the high 16 bits a region, the low 48
#: an offset. Region 1 is the stack, 2 the context; r10 and r1 start as
#: one past the stack's end and the context's start.
REGION_SHIFT = 48
STACK_REGION = 1
CONTEXT_REGION = 2
FRAME_POINTER = (STACK_REGION << REGION_SHIFT) + STACK_SIZE
CONTEXT_POINTER = CONTEXT_REGION << REGION_SHIFT

# -- opcode building blocks (instruction class in the low 3 bits) -----------
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_ALU64 = 0x07

# source modifier
BPF_K = 0x00  # immediate
BPF_X = 0x08  # register

# size modifier for loads/stores
BPF_W = 0x00  # 4 bytes
BPF_H = 0x08  # 2 bytes
BPF_B = 0x10  # 1 byte
BPF_DW = 0x18  # 8 bytes

BPF_MEM = 0x60
BPF_IMM = 0x00


class Opcode(enum.Enum):
    """Mnemonic-level opcodes (source/size variants handled separately)."""

    # ALU (arithmetic works on 64-bit registers; ALU32 not modeled)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    OR = "or"
    AND = "and"
    LSH = "lsh"
    RSH = "rsh"
    NEG = "neg"
    MOD = "mod"
    XOR = "xor"
    MOV = "mov"
    ARSH = "arsh"
    # memory
    LDXB = "ldxb"
    LDXH = "ldxh"
    LDXW = "ldxw"
    LDXDW = "ldxdw"
    STXB = "stxb"
    STXH = "stxh"
    STXW = "stxw"
    STXDW = "stxdw"
    STB = "stb"
    STH = "sth"
    STW = "stw"
    STDW = "stdw"
    LDDW = "lddw"
    # control flow
    JA = "ja"
    JEQ = "jeq"
    JNE = "jne"
    JGT = "jgt"
    JGE = "jge"
    JLT = "jlt"
    JLE = "jle"
    JSET = "jset"
    JSGT = "jsgt"
    JSGE = "jsge"
    JSLT = "jslt"
    JSLE = "jsle"
    CALL = "call"
    EXIT = "exit"


ALU_OPS = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.OR,
    Opcode.AND,
    Opcode.LSH,
    Opcode.RSH,
    Opcode.NEG,
    Opcode.MOD,
    Opcode.XOR,
    Opcode.MOV,
    Opcode.ARSH,
}

LOAD_OPS = {Opcode.LDXB, Opcode.LDXH, Opcode.LDXW, Opcode.LDXDW}
STORE_REG_OPS = {Opcode.STXB, Opcode.STXH, Opcode.STXW, Opcode.STXDW}
STORE_IMM_OPS = {Opcode.STB, Opcode.STH, Opcode.STW, Opcode.STDW}
STORE_OPS = STORE_REG_OPS | STORE_IMM_OPS

COND_JUMPS = {
    Opcode.JEQ,
    Opcode.JNE,
    Opcode.JGT,
    Opcode.JGE,
    Opcode.JLT,
    Opcode.JLE,
    Opcode.JSET,
    Opcode.JSGT,
    Opcode.JSGE,
    Opcode.JSLT,
    Opcode.JSLE,
}
JUMP_OPS = COND_JUMPS | {Opcode.JA, Opcode.EXIT, Opcode.CALL}
#: The opcodes that end a basic block: every jump, and EXIT (a CALL returns).
BLOCK_END_OPS = COND_JUMPS | {Opcode.JA, Opcode.EXIT}

MEM_SIZE = {
    Opcode.LDXB: 1,
    Opcode.LDXH: 2,
    Opcode.LDXW: 4,
    Opcode.LDXDW: 8,
    Opcode.STXB: 1,
    Opcode.STXH: 2,
    Opcode.STXW: 4,
    Opcode.STXDW: 8,
    Opcode.STB: 1,
    Opcode.STH: 2,
    Opcode.STW: 4,
    Opcode.STDW: 8,
}

_ALU_CODE = {
    Opcode.ADD: 0x0,
    Opcode.SUB: 0x1,
    Opcode.MUL: 0x2,
    Opcode.DIV: 0x3,
    Opcode.OR: 0x4,
    Opcode.AND: 0x5,
    Opcode.LSH: 0x6,
    Opcode.RSH: 0x7,
    Opcode.NEG: 0x8,
    Opcode.MOD: 0x9,
    Opcode.XOR: 0xA,
    Opcode.MOV: 0xB,
    Opcode.ARSH: 0xC,
}

_JMP_CODE = {
    Opcode.JA: 0x0,
    Opcode.JEQ: 0x1,
    Opcode.JGT: 0x2,
    Opcode.JGE: 0x3,
    Opcode.JSET: 0x4,
    Opcode.JNE: 0x5,
    Opcode.JSGT: 0x6,
    Opcode.JSGE: 0x7,
    Opcode.CALL: 0x8,
    Opcode.EXIT: 0x9,
    Opcode.JLT: 0xA,
    Opcode.JLE: 0xB,
    Opcode.JSLT: 0xC,
    Opcode.JSLE: 0xD,
}

_SIZE_BITS = {1: BPF_B, 2: BPF_H, 4: BPF_W, 8: BPF_DW}


@dataclass(frozen=True)
class Instruction:
    """One decoded eBPF instruction.

    ``uses_reg_src`` distinguishes the BPF_X (register source) form from the
    BPF_K (immediate) form for ALU and conditional-jump opcodes.
    """

    opcode: Opcode
    dst: int = 0
    src: int = 0
    offset: int = 0
    imm: int = 0
    uses_reg_src: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.dst < BPF_REG_COUNT:
            raise ProtocolError(f"bad dst register r{self.dst}")
        if not 0 <= self.src < BPF_REG_COUNT:
            raise ProtocolError(f"bad src register r{self.src}")
        if not -(1 << 15) <= self.offset < (1 << 15):
            raise ProtocolError(f"offset {self.offset} out of 16-bit range")

    # -- classification ------------------------------------------------------
    @property
    def is_alu(self) -> bool:
        return self.opcode in ALU_OPS

    @property
    def is_load(self) -> bool:
        """A load from memory (LDDW loads an immediate: no memory, no base)."""
        return self.opcode in LOAD_OPS

    @property
    def is_store(self) -> bool:
        return self.opcode in STORE_OPS

    @property
    def is_cond_jump(self) -> bool:
        return self.opcode in COND_JUMPS

    @property
    def slots(self) -> int:
        """Instruction slots consumed (LDDW takes two)."""
        return 2 if self.opcode is Opcode.LDDW else 1

    # -- binary encoding -----------------------------------------------------
    def encode(self) -> bytes:
        """Encode into 8 (or 16, for LDDW) little-endian bytes."""
        opcode_byte = self._opcode_byte()
        regs = (self.src << 4) | self.dst
        if self.opcode is Opcode.LDDW:
            low = self.imm & 0xFFFF_FFFF
            high = (self.imm >> 32) & 0xFFFF_FFFF
            first = struct.pack("<BBhI", opcode_byte, regs, 0, low)
            second = struct.pack("<BBhI", 0, 0, 0, high)
            return first + second
        imm32 = self.imm & 0xFFFF_FFFF
        return struct.pack("<BBhI", opcode_byte, regs, self.offset, imm32)

    def _opcode_byte(self) -> int:
        op = self.opcode
        if op in ALU_OPS:
            src = BPF_X if self.uses_reg_src else BPF_K
            return BPF_ALU64 | src | (_ALU_CODE[op] << 4)
        if op in JUMP_OPS:
            src = BPF_X if self.uses_reg_src else BPF_K
            return BPF_JMP | src | (_JMP_CODE[op] << 4)
        if op in LOAD_OPS:
            return BPF_LDX | BPF_MEM | _SIZE_BITS[MEM_SIZE[op]]
        if op in STORE_REG_OPS:
            return BPF_STX | BPF_MEM | _SIZE_BITS[MEM_SIZE[op]]
        if op in STORE_IMM_OPS:
            return BPF_ST | BPF_MEM | _SIZE_BITS[MEM_SIZE[op]]
        if op is Opcode.LDDW:
            return BPF_LD | BPF_IMM | BPF_DW
        raise ProtocolError(f"cannot encode {op}")


@dataclass
class Program:
    """A sequence of instructions plus metadata.

    ``pc`` indexing counts LDDW as occupying two slots, matching kernel
    semantics, so jump offsets computed against slot indices are correct.
    """

    instructions: List[Instruction] = field(default_factory=list)
    name: str = "prog"

    def __post_init__(self) -> None:
        self._by_slot: List[Optional[Instruction]] = []
        for insn in self.instructions:
            self._by_slot.append(insn)
            if insn.slots == 2:
                self._by_slot.append(None)  # LDDW second half

    def __len__(self) -> int:
        return len(self._by_slot)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def at_slot(self, pc: int) -> Instruction:
        if not 0 <= pc < len(self._by_slot):
            raise ProtocolError(f"pc {pc} out of range")
        insn = self._by_slot[pc]
        if insn is None:
            raise ProtocolError(f"pc {pc} lands in the middle of LDDW")
        return insn

    def encode(self) -> bytes:
        return b"".join(insn.encode() for insn in self.instructions)


def leaders(program: Program) -> List[int]:
    """The slots where *program*'s basic blocks begin, in order: pc 0, each
    jump target and the slot after each jump or EXIT, within the program."""
    found = {0}
    slot = 0
    for insn in program:
        slot += insn.slots
        if insn.opcode in BLOCK_END_OPS:
            found.add(slot)
            if insn.opcode is not Opcode.EXIT:
                found.add(slot + insn.offset)
    return sorted(pc for pc in found if 0 <= pc < len(program))


_HELPER_ARGUMENTS = frozenset(range(1, 6))
_CALL_CLOBBERED = frozenset(range(6))


def reads(insn: Instruction) -> FrozenSet[int]:
    r"""The registers *insn* reads: a helper's arguments r1-r5, EXIT's r0, a
    memory access's base and a register store's value, and an ALU op's or
    a branch's operands, of which MOV does not read its destination and
    NEG reads only it. LDDW and JA read none.

    >>> from repro.ebpf.asm import assemble
    >>> [sorted(reads(insn)) for insn in assemble(
    ...     "lddw r3, 7\nmov r0, r3\nadd r0, 1\nstxw [r10-4], r0\nexit")]
    [[], [3], [0], [0, 10], [0]]
    """
    op = insn.opcode
    if op is Opcode.CALL:
        return _HELPER_ARGUMENTS
    if op is Opcode.EXIT:
        return frozenset((0,))
    if op in LOAD_OPS:
        return frozenset((insn.src,))
    if op in STORE_OPS:
        return frozenset((insn.dst, insn.src) if op in STORE_REG_OPS else (insn.dst,))
    if op not in ALU_OPS and op not in COND_JUMPS:  # LDDW, JA
        return frozenset()
    operands = (insn.src,) if insn.uses_reg_src and op is not Opcode.NEG else ()
    return frozenset(operands if op is Opcode.MOV else operands + (insn.dst,))


def writes(insn: Instruction) -> FrozenSet[int]:
    """The registers *insn* writes: a helper call r0-r5, an ALU op, LDDW or
    a load its destination."""
    op = insn.opcode
    if op is Opcode.CALL:
        return _CALL_CLOBBERED
    if op in ALU_OPS or op in LOAD_OPS or op is Opcode.LDDW:
        return frozenset((insn.dst,))
    return frozenset()
