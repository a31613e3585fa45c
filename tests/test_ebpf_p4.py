"""Tests for the mini-P4 frontend (P4 -> eBPF, paper §2.2)."""

import struct

import pytest

from repro.common.errors import ConfigurationError
from repro.ebpf import BpfVm, Verifier
from repro.ebpf.p4 import FORWARD_BASE, VERDICT_DROP, P4Pipeline
from repro.hdl import compile_program


def l4_pipeline():
    pipeline = P4Pipeline("l4_filter")
    pipeline.header_field("dst_port", offset=2, size=2)
    table = pipeline.table("acl", key_field="dst_port")
    table.entry(22, action="drop")
    table.entry(80, action="forward", port=1)
    table.entry(443, action="forward", port=2)
    table.default(action="forward", port=0)
    return pipeline


def packet(dst_port, src_port=1234):
    return struct.pack("<HH", src_port, dst_port)


class TestCompilation:
    def test_compiles_and_verifies(self):
        program = l4_pipeline().compile()
        report = Verifier().verify(program)
        assert report.ok, report.reject_reason()

    def test_compiles_to_hardware(self):
        compiled = compile_program(l4_pipeline().compile())
        assert compiled.schedule.depth > 0
        assert "module ebpf_l4_filter" in compiled.verilog

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            P4Pipeline("empty").compile()

    def test_table_needs_default(self):
        pipeline = P4Pipeline("p")
        pipeline.header_field("f", offset=0, size=2)
        pipeline.table("t", key_field="f").entry(1, action="drop")
        with pytest.raises(ConfigurationError, match="default"):
            pipeline.compile()

    def test_duplicate_match_rejected(self):
        pipeline = P4Pipeline("p")
        pipeline.header_field("f", offset=0, size=2)
        table = pipeline.table("t", key_field="f")
        table.entry(1, action="drop")
        with pytest.raises(ConfigurationError, match="duplicate"):
            table.entry(1, action="forward")

    def test_unknown_action(self):
        pipeline = P4Pipeline("p")
        pipeline.header_field("f", offset=0, size=2)
        with pytest.raises(ConfigurationError):
            pipeline.table("t", key_field="f").entry(1, action="teleport")

    def test_unknown_key_field(self):
        with pytest.raises(ConfigurationError):
            P4Pipeline("p").table("t", key_field="ghost")

    def test_bad_field_size(self):
        with pytest.raises(ConfigurationError):
            P4Pipeline("p").header_field("f", offset=0, size=3)


class TestSemantics:
    def run(self, pipeline, ctx):
        return BpfVm(pipeline.compile()).run(ctx).return_value

    def test_drop_entry(self):
        assert self.run(l4_pipeline(), packet(22)) == VERDICT_DROP

    def test_forward_entries(self):
        assert self.run(l4_pipeline(), packet(80)) == FORWARD_BASE + 1
        assert self.run(l4_pipeline(), packet(443)) == FORWARD_BASE + 2

    def test_default_forward(self):
        assert self.run(l4_pipeline(), packet(8080)) == FORWARD_BASE + 0

    @pytest.mark.parametrize("dst_port, executed", [
        (22, 5), (80, 8), (443, 9), (8080, 9),
    ])
    def test_instruction_counts_per_table_path(self, dst_port, executed):
        """One count per ACL outcome (drop, two hits, default): a skipped or
        double-counted slot in the compiled program fails by port."""
        result = BpfVm(l4_pipeline().compile()).run(packet(dst_port))
        assert (result.instructions_executed, result.helper_calls) == (executed, 0)

    def test_two_tables_sequential_apply(self):
        """A later table overrides an earlier forward (P4 apply order)."""
        pipeline = P4Pipeline("chain")
        pipeline.header_field("port", offset=0, size=2)
        pipeline.header_field("tos", offset=2, size=1)
        first = pipeline.table("route", key_field="port")
        first.entry(80, action="forward", port=1)
        first.default(action="forward", port=0)
        second = pipeline.table("qos", key_field="tos")
        second.entry(7, action="forward", port=9)  # premium queue
        second.default(action="forward", port=0)

        program = pipeline.compile()
        vm = BpfVm(program)
        # port 80, normal tos: second table's default wins (sequential).
        ctx = struct.pack("<HBx", 80, 0)
        assert vm.run(ctx).return_value == FORWARD_BASE + 0
        # port 80, premium tos: the qos table overrides to port 9.
        ctx = struct.pack("<HBx", 80, 7)
        assert vm.run(ctx).return_value == FORWARD_BASE + 9

    def test_drop_short_circuits_later_tables(self):
        pipeline = P4Pipeline("chain")
        pipeline.header_field("port", offset=0, size=2)
        pipeline.header_field("tos", offset=2, size=1)
        acl = pipeline.table("acl", key_field="port")
        acl.entry(23, action="drop")
        acl.default(action="forward", port=0)
        qos = pipeline.table("qos", key_field="tos")
        qos.entry(7, action="forward", port=9)
        qos.default(action="forward", port=0)
        vm = BpfVm(pipeline.compile())
        ctx = struct.pack("<HBx", 23, 7)
        assert vm.run(ctx).return_value == VERDICT_DROP

    def test_pipeline_executes_in_hardware_model(self):
        from repro.hdl import HardwarePipeline
        from repro.sim import Simulator

        sim = Simulator()
        hw = HardwarePipeline(sim, compile_program(l4_pipeline().compile()))
        assert hw.execute_now(packet(443)).return_value == FORWARD_BASE + 2
