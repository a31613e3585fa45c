"""Verilog-like code generation for a scheduled pipeline.

The emitted text is structurally honest Verilog-2001 (module/ports/always
blocks, one stage register bank per pipeline stage, AXI-Stream handshakes on
both ends — the interface the Figure 2 arbiter expects), intended for
inspection and size accounting rather than synthesis.
"""

from __future__ import annotations

from typing import List

from repro.ebpf.isa import Instruction, Opcode
from repro.hdl.schedule import PipelineSchedule

_ALU_VERILOG = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.DIV: "/",
    Opcode.MOD: "%",
    Opcode.OR: "|",
    Opcode.AND: "&",
    Opcode.XOR: "^",
    Opcode.LSH: "<<",
    Opcode.RSH: ">>",
    Opcode.ARSH: ">>>",
}

_JUMP_VERILOG = {
    Opcode.JEQ: "==",
    Opcode.JNE: "!=",
    Opcode.JGT: ">",
    Opcode.JGE: ">=",
    Opcode.JLT: "<",
    Opcode.JLE: "<=",
    Opcode.JSGT: ">",
    Opcode.JSGE: ">=",
    Opcode.JSLT: "<",
    Opcode.JSLE: "<=",
    Opcode.JSET: "&",
}


def _expr(insn: Instruction, stage: int) -> str:
    """One instruction as a Verilog assignment inside its stage."""
    prev = f"s{stage}"
    op = insn.opcode
    if op is Opcode.MOV:
        src = f"{prev}_r{insn.src}" if insn.uses_reg_src else f"64'd{insn.imm & ((1<<64)-1)}"
        return f"r{insn.dst} <= {src};"
    if op is Opcode.LDDW:
        return f"r{insn.dst} <= 64'h{insn.imm & ((1 << 64) - 1):x};"
    if op is Opcode.NEG:
        return f"r{insn.dst} <= -{prev}_r{insn.dst};"
    if op in _ALU_VERILOG:
        src = f"{prev}_r{insn.src}" if insn.uses_reg_src else f"64'd{insn.imm & ((1<<64)-1)}"
        return f"r{insn.dst} <= {prev}_r{insn.dst} {_ALU_VERILOG[op]} {src};"
    if insn.is_load:
        return (
            f"r{insn.dst} <= mem_rdata; // load [r{insn.src}"
            f"{insn.offset:+d}]"
        )
    if insn.is_store:
        value = f"{prev}_r{insn.src}" if op.value.startswith("stx") else f"64'd{insn.imm & ((1<<64)-1)}"
        return f"mem_wdata <= {value}; // store [r{insn.dst}{insn.offset:+d}]"
    if op in _JUMP_VERILOG:
        src = f"{prev}_r{insn.src}" if insn.uses_reg_src else f"64'd{insn.imm & ((1<<64)-1)}"
        return (
            f"branch_taken <= ({prev}_r{insn.dst} {_JUMP_VERILOG[op]} {src});"
        )
    if op is Opcode.JA:
        return "branch_taken <= 1'b1;"
    if op is Opcode.CALL:
        return f"helper_id <= 32'd{insn.imm}; helper_req <= 1'b1;"
    if op is Opcode.EXIT:
        return "out_valid <= 1'b1; out_value <= r0;"
    return f"// unhandled {op.value}"


def generate_verilog(schedule: PipelineSchedule) -> str:
    """Emit the pipeline as a Verilog module ``ebpf_<program name>``."""
    name = f"ebpf_{schedule.program_name}"
    lines: List[str] = []
    lines.append(f"// Generated from eBPF program '{schedule.program_name}'")
    lines.append(
        f"// depth={schedule.depth} II={schedule.initiation_interval} "
        f"width={schedule.width}"
    )
    lines.append(f"module {name} (")
    lines.append("    input  wire         clk,")
    lines.append("    input  wire         rst_n,")
    lines.append("    // AXI-Stream slave (input tuples)")
    lines.append("    input  wire [511:0] s_axis_tdata,")
    lines.append("    input  wire         s_axis_tvalid,")
    lines.append("    output wire         s_axis_tready,")
    lines.append("    // AXI-Stream master (results)")
    lines.append("    output reg  [63:0]  m_axis_tdata,")
    lines.append("    output reg          m_axis_tvalid,")
    lines.append("    input  wire         m_axis_tready")
    lines.append(");")
    lines.append("")
    lines.append(f"    // {schedule.depth} pipeline stage register banks")
    for stage_index in range(schedule.depth):
        lines.append(f"    reg [63:0] s{stage_index}_r0, s{stage_index}_r1;")
    lines.append("")
    for stage_index, stage in enumerate(schedule.stages):
        lines.append(f"    // ---- stage {stage_index} "
                     f"({len(stage)} parallel op(s)) ----")
        lines.append("    always @(posedge clk) begin")
        for op in stage:
            if op.is_fused:
                lines.append(f"        // fused: {op.describe()}")
            for insn in op.instructions:
                lines.append(f"        {_expr(insn, stage_index)}")
        lines.append("    end")
        lines.append("")
    lines.append("    assign s_axis_tready = 1'b1;")
    lines.append("endmodule")
    return "\n".join(lines)
