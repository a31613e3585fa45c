"""Tests for eBPF instruction encoding/decoding and the assembler."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.ebpf import Instruction, Opcode, Program, assemble


class TestInstruction:
    def test_bad_register(self):
        with pytest.raises(ProtocolError):
            Instruction(Opcode.MOV, dst=11)

    def test_bad_offset(self):
        with pytest.raises(ProtocolError):
            Instruction(Opcode.JA, offset=1 << 15)

    def test_lddw_takes_two_slots(self):
        assert Instruction(Opcode.LDDW, dst=1, imm=1 << 40).slots == 2
        assert Instruction(Opcode.MOV, dst=1).slots == 1

    def test_encode_length(self):
        assert len(Instruction(Opcode.MOV, dst=1, imm=5).encode()) == 8
        assert len(Instruction(Opcode.LDDW, dst=1, imm=5).encode()) == 16

    def test_classification(self):
        assert Instruction(Opcode.ADD, dst=0, imm=1).is_alu
        assert Instruction(Opcode.LDXW, dst=0, src=1).is_load
        assert Instruction(Opcode.STXB, dst=1, src=0).is_store
        assert Instruction(Opcode.JEQ, dst=0, imm=0, offset=1).is_cond_jump


ENCODABLE_OPS = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.OR, Opcode.AND,
    Opcode.LSH, Opcode.RSH, Opcode.MOD, Opcode.XOR, Opcode.MOV, Opcode.ARSH,
    Opcode.LDXB, Opcode.LDXH, Opcode.LDXW, Opcode.LDXDW,
    Opcode.STXB, Opcode.STXH, Opcode.STXW, Opcode.STXDW,
    Opcode.STB, Opcode.STH, Opcode.STW, Opcode.STDW,
    Opcode.JA, Opcode.JEQ, Opcode.JNE, Opcode.JGT, Opcode.JGE, Opcode.JLT,
    Opcode.JLE, Opcode.JSET, Opcode.JSGT, Opcode.JSGE, Opcode.JSLT,
    Opcode.JSLE, Opcode.CALL, Opcode.EXIT,
]


@given(
    op=st.sampled_from(ENCODABLE_OPS),
    dst=st.integers(min_value=0, max_value=10),
    src=st.integers(min_value=0, max_value=10),
    offset=st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1),
    imm=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    reg_src=st.booleans(),
)
def test_encode_decode_roundtrip(op, dst, src, offset, imm, reg_src):
    original = Instruction(op, dst=dst, src=src, offset=offset, imm=imm,
                           uses_reg_src=reg_src)
    decoded = Instruction.decode(original.encode())
    assert decoded.opcode == original.opcode
    assert decoded.dst == original.dst
    assert decoded.src == original.src
    assert decoded.offset == original.offset
    assert decoded.imm == original.imm


@given(imm=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_lddw_roundtrip(imm):
    original = Instruction(Opcode.LDDW, dst=3, imm=imm)
    decoded = Instruction.decode(original.encode())
    assert decoded.opcode is Opcode.LDDW
    assert decoded.imm == imm


def _raw(opcode_byte):
    """One instruction with every other field non-trivial (16 B for LDDW)."""
    regs = (2 << 4) | 1
    if opcode_byte == 0x18:
        return struct.pack("<BBhiBBhI", 0x18, regs, 0, -5, 0, 0, 0, 0x11223344)
    return struct.pack("<BBhi", opcode_byte, regs, -3, -5)


#: Every opcode byte the model implements, written out from the ISA tables
#: (class | source | code<<4, class | MEM | size), not from the decoder.
ACCEPTED_BYTES = (
    {0x07 | source | (code << 4) for code in range(0xD) for source in (0, 8)}  # ALU64
    | {0x05 | source | (code << 4) for code in range(0xE) for source in (0, 8)}  # JMP
    | {cls | 0x60 | size for cls in (1, 2, 3) for size in (0x00, 0x08, 0x10, 0x18)}
    | {0x18}  # LDDW
)


class TestDecoder:
    def test_every_accepted_opcode_byte_round_trips(self):
        assert len(ACCEPTED_BYTES) == 67
        for opcode_byte in sorted(ACCEPTED_BYTES):
            raw = _raw(opcode_byte)
            assert Instruction.decode(raw).encode() == raw, hex(opcode_byte)

    def test_every_other_opcode_byte_is_rejected_by_name(self):
        for opcode_byte in sorted(set(range(256)) - ACCEPTED_BYTES):
            with pytest.raises(ProtocolError, match=f"{opcode_byte:#04x}"):
                Instruction.decode(_raw(opcode_byte))

    def test_alu32_is_rejected_not_widened(self):
        """``add32 r0, 1`` used to come back as the 64-bit ``add``."""
        with pytest.raises(ProtocolError, match="ALU32 not modeled.*0x04"):
            Instruction.decode(bytes([0x04, 0, 0, 0, 1, 0, 0, 0]))
        mov_minus_one = Instruction(Opcode.MOV, dst=0, imm=-1).encode()
        add32_zero = bytes([0x04, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ProtocolError, match="ALU32 not modeled"):
            Program.decode(
                mov_minus_one + add32_zero + Instruction(Opcode.EXIT).encode()
            )

    def test_known_encodings(self):
        """Anchors from the ISA document, so encode and decode cannot drift
        together."""
        for opcode_byte, opcode, reg_src in [
            (0x07, Opcode.ADD, False), (0x0F, Opcode.ADD, True),
            (0xB7, Opcode.MOV, False), (0xBF, Opcode.MOV, True),
            (0xC7, Opcode.ARSH, False), (0x87, Opcode.NEG, False),
            (0x61, Opcode.LDXW, False), (0x79, Opcode.LDXDW, False),
            (0x73, Opcode.STXB, False), (0x6A, Opcode.STH, False),
            (0x05, Opcode.JA, False), (0x1D, Opcode.JEQ, True),
            (0x55, Opcode.JNE, False), (0xD5, Opcode.JSLE, False),
            (0x85, Opcode.CALL, False), (0x95, Opcode.EXIT, False),
            (0x18, Opcode.LDDW, False),
        ]:
            decoded = Instruction.decode(_raw(opcode_byte))
            assert (decoded.opcode, decoded.uses_reg_src) == (opcode, reg_src)


class TestProgram:
    def test_slot_indexing_with_lddw(self):
        program = Program([
            Instruction(Opcode.LDDW, dst=1, imm=99),
            Instruction(Opcode.EXIT),
        ])
        assert len(program) == 3
        assert program.at_slot(0).opcode is Opcode.LDDW
        assert program.at_slot(2).opcode is Opcode.EXIT
        with pytest.raises(ProtocolError):
            program.at_slot(1)  # middle of LDDW

    def test_binary_roundtrip(self):
        program = Program([
            Instruction(Opcode.MOV, dst=0, imm=7),
            Instruction(Opcode.LDDW, dst=1, imm=1 << 40),
            Instruction(Opcode.ADD, dst=0, src=1, uses_reg_src=True),
            Instruction(Opcode.EXIT),
        ])
        restored = Program.decode(program.encode())
        assert len(restored.instructions) == 4
        assert restored.instructions[1].imm == 1 << 40

    def test_decode_bad_length(self):
        with pytest.raises(ProtocolError):
            Program.decode(b"\x00" * 7)


class TestAssembler:
    def test_simple_program(self):
        program = assemble("""
            mov r0, 42
            exit
        """)
        assert [i.opcode for i in program] == [Opcode.MOV, Opcode.EXIT]
        assert program.instructions[0].imm == 42

    def test_labels(self):
        program = assemble("""
            mov r0, 0
            jeq r1, 0, done
            add r0, 1
        done:
            exit
        """)
        jeq = program.instructions[1]
        assert jeq.offset == 1  # skips the add

    def test_backward_label(self):
        program = assemble("""
        top:
            add r0, 1
            ja top
        """)
        assert program.instructions[1].offset == -2

    def test_lddw_slot_accounting_with_labels(self):
        program = assemble("""
            lddw r1, 0x1122334455667788
            jeq r1, 0, out
            mov r0, 1
        out:
            exit
        """)
        jeq = program.instructions[1]
        # Slots: lddw=0,1; jeq=2; mov=3; exit=4. Offset from 3 to 4 is 1.
        assert jeq.offset == 1

    def test_memory_operands(self):
        program = assemble("""
            ldxdw r2, [r1+8]
            stxw [r10-4], r2
            stw [r10-8], 7
            exit
        """)
        load = program.instructions[0]
        assert (load.src, load.offset) == (1, 8)
        store = program.instructions[1]
        assert (store.dst, store.offset, store.src) == (10, -4, 2)
        imm_store = program.instructions[2]
        assert imm_store.imm == 7

    def test_register_vs_imm_source(self):
        program = assemble("add r0, r1\nadd r0, 5\nexit")
        assert program.instructions[0].uses_reg_src
        assert not program.instructions[1].uses_reg_src

    def test_comments_and_blanks_ignored(self):
        program = assemble("""
            ; a comment

            mov r0, 1  ; trailing
            exit
        """)
        assert len(program.instructions) == 2

    def test_unknown_mnemonic(self):
        with pytest.raises(ProtocolError):
            assemble("bogus r0, r1")

    def test_unknown_label(self):
        with pytest.raises(ProtocolError):
            assemble("ja nowhere")

    def test_duplicate_label(self):
        with pytest.raises(ProtocolError):
            assemble("x:\nx:\nexit")

    def test_call_and_exit(self):
        program = assemble("call 1\nexit")
        assert program.instructions[0].imm == 1
