"""Tests for the eBPF interpreter, maps, and helpers."""

import pytest

from repro.common.errors import CapacityError, ProtocolError, VerificationError
from repro.ebpf import BpfVm, HashMap, Opcode, ProgramBuilder, assemble
from repro.ebpf.helpers import (
    HELPER_GET_PRANDOM_U32,
    HELPER_KTIME_GET_NS,
    HELPER_MAP_DELETE,
    HELPER_MAP_LOOKUP,
    HELPER_MAP_UPDATE,
    HELPER_TRACE_PRINTK,
)


def run(source, context=b""):
    return BpfVm(assemble(source)).run(context)


def refused(source):
    """The verifier's reason, naming the pc, for not building a VM."""
    with pytest.raises(VerificationError) as caught:
        BpfVm(assemble(source))
    return str(caught.value)


class TestArithmetic:
    def test_mov_and_exit(self):
        assert run("mov r0, 42\nexit").return_value == 42

    def test_add_sub_mul(self):
        assert run("mov r0, 10\nadd r0, 5\nexit").return_value == 15
        assert run("mov r0, 10\nsub r0, 3\nexit").return_value == 7
        assert run("mov r0, 6\nmul r0, 7\nexit").return_value == 42

    def test_register_source(self):
        assert run("mov r1, 8\nmov r0, 4\nadd r0, r1\nexit").return_value == 12

    def test_div_by_zero_yields_zero(self):
        assert run("mov r1, 0\nmov r0, 10\ndiv r0, r1\nexit").return_value == 0

    def test_mod(self):
        assert run("mov r0, 17\nmod r0, 5\nexit").return_value == 2

    def test_bitwise(self):
        assert run("mov r0, 0b1100\nand r0, 0b1010\nexit").return_value == 0b1000
        assert run("mov r0, 0b1100\nor r0, 0b0011\nexit").return_value == 0b1111
        assert run("mov r0, 0b1100\nxor r0, 0b1010\nexit").return_value == 0b0110

    def test_shifts(self):
        assert run("mov r0, 1\nlsh r0, 10\nexit").return_value == 1024
        assert run("mov r0, 1024\nrsh r0, 3\nexit").return_value == 128

    def test_arsh_sign_extends(self):
        result = run("mov r0, 0\nsub r0, 8\narsh r0, 1\nexit")
        assert result.return_value == (-4) & ((1 << 64) - 1)

    def test_neg(self):
        assert run("mov r0, 5\nneg r0\nexit").return_value == (-5) & ((1 << 64) - 1)

    def test_wraparound_64bit(self):
        result = run("lddw r0, 0xffffffffffffffff\nadd r0, 1\nexit")
        assert result.return_value == 0

    def test_lddw_large_imm(self):
        assert run("lddw r0, 0x1122334455667788\nexit").return_value == 0x1122334455667788


class TestControlFlow:
    def test_taken_branch(self):
        source = """
            mov r1, 5
            mov r0, 0
            jeq r1, 5, yes
            mov r0, 1
            exit
        yes:
            mov r0, 2
            exit
        """
        assert run(source).return_value == 2

    def test_not_taken_branch(self):
        source = """
            mov r1, 4
            mov r0, 0
            jeq r1, 5, yes
            mov r0, 1
            exit
        yes:
            mov r0, 2
            exit
        """
        assert run(source).return_value == 1

    def test_signed_compare(self):
        source = """
            mov r1, 0
            sub r1, 1      ; r1 = -1
            mov r0, 0
            jslt r1, 0, neg
            exit
        neg:
            mov r0, 99
            exit
        """
        assert run(source).return_value == 99

    def test_unsigned_compare_treats_neg_as_big(self):
        source = """
            mov r1, 0
            sub r1, 1
            mov r0, 0
            jgt r1, 100, big
            exit
        big:
            mov r0, 1
            exit
        """
        assert run(source).return_value == 1

    def test_loop_with_counter(self):
        """A loop is a back-edge: the VM refuses it at construction."""
        source = """
            mov r1, 10
            mov r0, 0
        top:
            add r0, r1
            sub r1, 1
            jne r1, 0, top
            exit
        """
        assert refused(source) == (
            "program 'prog' rejected: pc 4: back-edge detected; loops are rejected")


class TestMemory:
    def test_stack_store_load(self):
        source = """
            mov r1, 777
            stxdw [r10-8], r1
            ldxdw r0, [r10-8]
            exit
        """
        assert run(source).return_value == 777

    def test_byte_granularity(self):
        source = """
            stb [r10-1], 0xAB
            ldxb r0, [r10-1]
            exit
        """
        assert run(source).return_value == 0xAB

    def test_context_read(self):
        source = """
            ldxw r0, [r1+0]
            exit
        """
        context = (1234).to_bytes(4, "little")
        assert run(source, context=context).return_value == 1234

    def test_context_write_visible_in_result(self):
        source = """
            stw [r1+0], 99
            mov r0, 0
            exit
        """
        result = run(source, context=b"\x00" * 4)
        assert int.from_bytes(result.context[:4], "little") == 99

    def test_context_length_in_r2(self):
        source = "mov r0, r2\nexit"
        assert run(source, context=b"x" * 17).return_value == 17

    def test_out_of_bounds_stack_faults(self):
        assert refused("ldxdw r0, [r10+0]\nexit").endswith(
            "pc 0: stack access [0, 8) outside [-512, 0)")

    def test_out_of_bounds_context_faults(self):
        with pytest.raises(ProtocolError, match="out-of-bounds"):
            run("ldxw r0, [r1+100]\nexit", context=b"abcd")

    def test_invalid_pointer_faults(self):
        """The verifier refuses a load through a scalar, and an update whose
        value is no stack pointer: no verified run dereferences one."""
        assert refused("mov r1, 0\nldxw r0, [r1+0]\nexit").endswith(
            "pc 1: memory access via non-pointer (scalar)")
        source = f"""
            mov r1, 1
            mov r2, r10
            add r2, -8
            mov r3, 0
            mov r4, 0
            call {HELPER_MAP_UPDATE}
            exit
        """
        assert refused(source).endswith(
            "pc 5: map update needs a value on the stack in r3")


class TestHelpersAndMaps:
    def make_vm(self, source, maps):
        return BpfVm(assemble(source), maps=maps)

    def test_map_update_and_lookup(self):
        source = f"""
            ; key = 7 at [r10-8]
            mov r1, 7
            stxdw [r10-8], r1
            ; value = 1234 at [r10-16]
            mov r1, 1234
            stxdw [r10-16], r1
            ; map_update(fd=1, key, value, 0)
            mov r1, 1
            mov r2, r10
            sub r2, 8
            mov r3, r10
            sub r3, 16
            mov r4, 0
            call {HELPER_MAP_UPDATE}
            ; r0 = *map_lookup(fd=1, key)
            mov r1, 7
            stxdw [r10-8], r1
            mov r1, 1
            mov r2, r10
            sub r2, 8
            call {HELPER_MAP_LOOKUP}
            jne r0, 0, found
            mov r0, 0
            exit
        found:
            ldxdw r0, [r0+0]
            exit
        """
        table = HashMap(key_size=8, value_size=8)
        vm = self.make_vm(source, {1: table})
        assert vm.run().return_value == 1234
        assert len(table) == 1

    def test_lookup_miss_returns_zero(self):
        source = f"""
            mov r1, 9
            stxdw [r10-8], r1
            mov r1, 1
            mov r2, r10
            sub r2, 8
            call {HELPER_MAP_LOOKUP}
            exit
        """
        vm = self.make_vm(source, {1: HashMap(key_size=8, value_size=8)})
        assert vm.run().return_value == 0

    def test_write_through_map_pointer(self):
        """Stores through a looked-up value pointer mutate the map."""
        table = HashMap(key_size=8, value_size=8)
        table.update((5).to_bytes(8, "little"), (0).to_bytes(8, "little"))
        source = f"""
            mov r1, 5
            stxdw [r10-8], r1
            mov r1, 1
            mov r2, r10
            sub r2, 8
            call {HELPER_MAP_LOOKUP}
            jeq r0, 0, miss
            mov r1, 42
            stxdw [r0+0], r1
            mov r0, 1
            exit
        miss:
            mov r0, 0
            exit
        """
        vm = self.make_vm(source, {1: table})
        assert vm.run().return_value == 1
        stored = table.lookup((5).to_bytes(8, "little"))
        assert int.from_bytes(stored, "little") == 42

    def test_map_delete(self):
        table = HashMap(key_size=8, value_size=8)
        table.update((3).to_bytes(8, "little"), (1).to_bytes(8, "little"))
        source = f"""
            mov r1, 3
            stxdw [r10-8], r1
            mov r1, 1
            mov r2, r10
            sub r2, 8
            call {HELPER_MAP_DELETE}
            exit
        """
        vm = self.make_vm(source, {1: table})
        vm.run()
        assert len(table) == 0

    def test_ktime_monotonic(self):
        source = f"call {HELPER_KTIME_GET_NS}\nmov r6, r0\ncall {HELPER_KTIME_GET_NS}\nsub r0, r6\nexit"
        assert run(source).return_value >= 1

    def test_prandom(self):
        result = run(f"call {HELPER_GET_PRANDOM_U32}\nexit")
        assert 0 <= result.return_value < (1 << 32)

    def test_unknown_helper_faults(self):
        assert refused("call 999\nexit").endswith("pc 0: call to unknown helper 999")

    def test_call_clobbers_caller_saved(self):
        """The verifier refuses a read of r1 after a call; the next helper
        sees the zero the call left there."""
        assert refused(f"mov r1, 55\ncall {HELPER_KTIME_GET_NS}\nmov r0, r1\nexit"
                       ).endswith("pc 2: read of uninitialized register r1")
        vm = BpfVm(assemble(
            f"mov r1, 55\ncall {HELPER_KTIME_GET_NS}\ncall {HELPER_TRACE_PRINTK}\nexit"))
        vm.run()
        assert vm.trace_log == [(0, 0, 0, 0, 0)]


class TestMaps:
    def test_hashmap_capacity(self):
        table = HashMap(key_size=1, value_size=1, max_entries=1)
        table.update(b"a", b"x")
        with pytest.raises(CapacityError):
            table.update(b"b", b"y")
        table.update(b"a", b"z")  # overwrite is fine

    def test_hashmap_key_size_enforced(self):
        with pytest.raises(ProtocolError):
            HashMap(key_size=4, value_size=4).lookup(b"too-long-key")

    def test_hashmap_items(self):
        table = HashMap(key_size=1, value_size=1)
        table.update(b"a", b"1")
        table.update(b"b", b"2")
        assert dict(table.items()) == {b"a": b"1", b"b": b"2"}


class TestBuilder:
    def test_builder_matches_assembler(self):
        built = (
            ProgramBuilder()
            .mov("r0", 0)
            .branch(Opcode.JEQ, "r1", 0, "done")
            .add("r0", 1)
            .label("done")
            .exit()
            .build()
        )
        assembled = assemble("""
            mov r0, 0
            jeq r1, 0, done
            add r0, 1
        done:
            exit
        """)
        assert built.encode() == assembled.encode()

    def test_builder_runs(self):
        program = (
            ProgramBuilder()
            .mov("r6", 21)
            .mov("r0", "r6")
            .add("r0", "r6")
            .exit()
            .build()
        )
        assert BpfVm(program).run().return_value == 42

    def test_undefined_label_rejected(self):
        builder = ProgramBuilder().jne("r0", 0, "nowhere").exit()
        with pytest.raises(ProtocolError):
            builder.build()

    def test_builder_memory_ops(self):
        program = (
            ProgramBuilder()
            .mov("r1", 7)
            .store(8, "r10", -8, "r1")
            .load(8, "r0", "r10", -8)
            .exit()
            .build()
        )
        assert BpfVm(program).run().return_value == 7
