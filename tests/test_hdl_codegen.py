"""Tests for Verilog code generation across the full opcode surface."""

import pytest

from repro.ebpf import assemble
from repro.ebpf.isa import Instruction, Opcode, Program
from repro.hdl import generate_verilog, schedule_pipeline


def verilog_for(source, **kwargs):
    return generate_verilog(schedule_pipeline(assemble(source), **kwargs))


class TestModuleShape:
    def test_ports(self):
        text = verilog_for("mov r0, 1\nexit")
        for port in ("clk", "rst_n", "s_axis_tdata", "s_axis_tvalid",
                     "s_axis_tready", "m_axis_tdata", "m_axis_tvalid"):
            assert port in text

    def test_metadata_comment(self):
        text = verilog_for("mov r0, 1\nexit")
        assert "depth=" in text
        assert "II=" in text

    def test_stage_register_banks_match_depth(self):
        schedule = schedule_pipeline(assemble("mov r0, 1\nadd r0, r0\nexit"),
                                     fuse=False)
        text = generate_verilog(schedule)
        for index in range(schedule.depth):
            assert f"s{index}_r0" in text


class TestExpressionRendering:
    def test_alu_operators(self):
        text = verilog_for(
            "mov r0, 1\nadd r0, 2\nsub r0, 3\nmul r0, 4\nand r0, 5\n"
            "or r0, 6\nxor r0, 7\nlsh r0, 1\nrsh r0, 1\nexit",
            fuse=False,
        )
        for operator in ("+", "-", "*", "&", "|", "^", "<<", ">>"):
            assert operator in text

    def test_load_store_comments(self):
        text = verilog_for(
            "ldxdw r3, [r1+8]\nstxdw [r10-8], r3\nmov r0, 0\nexit",
            fuse=False,
        )
        assert "load [r1+8]" in text
        assert "store [r10-8]" in text
        assert "mem_rdata" in text
        assert "mem_wdata" in text

    def test_branch_rendering(self):
        text = verilog_for("mov r0, 0\njeq r1, 5, t\nexit\nt:\nexit", fuse=False)
        assert "branch_taken" in text
        assert "==" in text

    def test_call_rendering(self):
        text = verilog_for("call 5\nexit", fuse=False)
        assert "helper_id <= 32'd5" in text
        assert "helper_req" in text

    def test_exit_drives_output(self):
        text = verilog_for("mov r0, 9\nexit")
        assert "out_valid" in text

    def test_lddw_constant(self):
        text = verilog_for("lddw r0, 0xdeadbeef\nexit", fuse=False)
        assert "64'hdeadbeef" in text

    def test_neg_rendering(self):
        text = verilog_for("mov r0, 5\nneg r0\nexit", fuse=False)
        assert "-s" in text  # -sN_r0

    def test_signed_compare_rendering(self):
        text = verilog_for("mov r0, 0\njslt r1, 0, t\nexit\nt:\nexit",
                           fuse=False)
        assert "<" in text

    def test_ja_rendering(self):
        text = verilog_for("mov r0, 1\nja end\nend:\nexit", fuse=False)
        assert "branch_taken <= 1'b1" in text
