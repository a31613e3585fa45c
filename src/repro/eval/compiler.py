"""E10: the eBPF->HDL compiler over a program corpus, fusion ablation.

For each program: verifier verdict, pipeline depth, initiation interval,
estimated area and f_max — with fusion on and off. Expected shape: fusion
reduces depth and register area at a small f_max cost; the verifier rejects
exactly the unsafe programs; the emitted HDL module has one stage block
per pipeline stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.fail2ban import build_fail2ban_program
from repro.common.errors import VerificationError
from repro.ebpf.asm import assemble
from repro.ebpf.isa import Program
from repro.eval.report import HIGHER, INFO, Metric, Table, violated
from repro.hdl.engine import compile_program

#: (name, source or Program, expected_verdict)
def program_corpus() -> List[Tuple[str, Program, bool]]:
    corpus: List[Tuple[str, Program, bool]] = []
    corpus.append(("const", assemble("mov r0, 42\nexit", name="const"), True))
    corpus.append((
        "checksum16",
        assemble(
            """
            ldxh r3, [r1+0]
            ldxh r4, [r1+2]
            ldxh r5, [r1+4]
            mov r0, r3
            add r0, r4
            add r0, r5
            and r0, 0xffff
            exit
            """,
            name="checksum16",
        ),
        True,
    ))
    corpus.append((
        "classifier",
        assemble(
            """
            ldxw r3, [r1+0]
            mov r0, 0
            jeq r3, 80, http
            jeq r3, 443, https
            exit
        http:
            mov r0, 1
            exit
        https:
            mov r0, 2
            exit
            """,
            name="classifier",
        ),
        True,
    ))
    corpus.append(("fail2ban", build_fail2ban_program(), True))
    corpus.append((
        "parallel-sum",
        assemble(
            """
            ldxdw r3, [r1+0]
            ldxdw r4, [r1+8]
            ldxdw r5, [r1+16]
            ldxdw r6, [r1+24]
            mov r0, r3
            add r0, r4
            add r0, r5
            add r0, r6
            exit
            """,
            name="parallel-sum",
        ),
        True,
    ))
    corpus.append((
        "unrolled-consts",
        assemble(
            "\n".join(
                ["mov r0, 0"]
                + [f"add r0, {i}" for i in range(1, 9)]  # folds to one const
                + ["mov r3, 99", "mul r3, 7"]  # dead: r3 never read
                + ["exit"]
            ),
            name="unrolled-consts",
        ),
        True,
    ))
    corpus.append(
        ("uninit-read", assemble("mov r0, r9\nexit", name="uninit-read"), False)
    )
    corpus.append(
        ("oob-stack", assemble("ldxdw r0, [r10-600]\nexit", name="oob-stack"), False)
    )
    corpus.append((
        "unbounded-loop",
        assemble("top:\nmov r0, 1\nja top", name="unbounded-loop"),
        False,
    ))
    return corpus


@dataclass
class CompileRow:
    """Per-program E10 results across fusion and warping variants."""

    name: str
    expected_ok: bool
    verified: bool
    depth_fused: Optional[int] = None
    depth_unfused: Optional[int] = None
    ii: Optional[int] = None
    ffs_fused: Optional[int] = None
    ffs_unfused: Optional[int] = None
    fmax_fused: Optional[float] = None
    fmax_unfused: Optional[float] = None
    insns_before_opt: Optional[int] = None
    insns_after_opt: Optional[int] = None
    #: Stage blocks in the fused pipeline's emitted Verilog-like module.
    hdl_stages: Optional[int] = None


def metrics(rows) -> Dict[str, Metric]:
    verified = sum(1 for r in rows if r.verified)
    return {
        "programs_verified": Metric(verified, HIGHER, "programs"),
        "programs_total": Metric(len(rows), INFO, "programs"),
    }


def accept(rows) -> List[str]:
    compiled = [r for r in rows if r.verified]
    return violated(
        (all(r.verified == r.expected_ok for r in rows),
         "the verifier accepts exactly the safe programs"),
        (all(r.depth_fused <= r.depth_unfused
             and r.ffs_fused <= r.ffs_unfused for r in compiled),
         "fusion never deepens a pipeline or adds registers"),
        (any(r.depth_fused < r.depth_unfused for r in compiled),
         "fusion shortens at least one pipeline"),
        (all(r.fmax_fused >= 0.7 * r.fmax_unfused for r in compiled),
         "fusion costs at most 30% of f_max"),
        (all(r.hdl_stages == r.depth_fused for r in compiled),
         "the emitted HDL module has one stage block per pipeline stage"),
        (all(r.ii >= 1 for r in compiled),
         "every pipeline has an initiation interval of at least 1"),
        (all(r.insns_after_opt <= r.insns_before_opt for r in compiled),
         "the optimizer never grows a program"),
        (any(r.insns_after_opt < r.insns_before_opt for r in compiled),
         "the optimizer shrinks at least one program"),
    )


def run_compiler() -> List[CompileRow]:
    rows = []
    for name, program, expected_ok in program_corpus():
        row = CompileRow(name=name, expected_ok=expected_ok, verified=True)
        try:
            fused = compile_program(program, fuse=True)
        except VerificationError:
            row.verified = False
            rows.append(row)
            continue
        unfused = compile_program(program, fuse=False)
        optimized = compile_program(program, fuse=True, optimize=True)
        row.depth_fused = fused.schedule.depth
        row.depth_unfused = unfused.schedule.depth
        row.ii = fused.schedule.initiation_interval
        row.ffs_fused = fused.area.resources.ffs
        row.ffs_unfused = unfused.area.resources.ffs
        row.fmax_fused = fused.area.fmax_hz
        row.fmax_unfused = unfused.area.fmax_hz
        row.insns_before_opt = len(program.instructions)
        row.insns_after_opt = optimized.schedule.issued
        row.hdl_stages = fused.verilog.count("// ---- stage ")
        rows.append(row)
    return rows


def format_compiler(rows: List[CompileRow]) -> str:
    table = Table(
        "E10: eBPF->HDL compilation corpus (fusion + warping ablations)",
        ["program", "verified", "depth (fused/not)", "II",
         "FFs (fused/not)", "fmax (fused/not)", "insns (opt)"],
    )
    for row in rows:
        if not row.verified:
            table.add_row(row.name, "rejected", "-", "-", "-", "-", "-")
            continue
        table.add_row(
            row.name,
            "ok",
            f"{row.depth_fused}/{row.depth_unfused}",
            row.ii,
            f"{row.ffs_fused}/{row.ffs_unfused}",
            f"{row.fmax_fused / 1e6:.0f}/{row.fmax_unfused / 1e6:.0f} MHz",
            f"{row.insns_before_opt}->{row.insns_after_opt}",
        )
    return table.render()
