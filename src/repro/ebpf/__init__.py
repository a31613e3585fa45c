"""eBPF: the accelerator-independent intermediate representation (§2.2).

The paper's position: FPGA programming should decouple frontends from HDL
backends through an IR that is (1) domain-neutral, (2) verifiable, and
(3) retargetable — and eBPF is that IR. This package implements the eBPF
ISA with an assembler, a VM that compiles each program into one Python
function, maps and helpers, and a verifier performing simplified symbolic
execution (register state tracking, bounds checks, termination) in the
spirit of the Linux kernel's verifier the paper cites.

The :mod:`repro.hdl` package consumes the same instructions to generate
hardware pipelines, completing the frontend -> IR -> HDL flow of §2.2.
"""

from repro.ebpf.isa import (
    BPF_REG_COUNT,
    Instruction,
    Opcode,
    Program,
)
from repro.ebpf.asm import assemble
from repro.ebpf.builder import ProgramBuilder
from repro.ebpf.maps import BpfMap, HashMap
from repro.ebpf.helpers import HelperRegistry, standard_helpers
from repro.ebpf.vm import BpfVm, ExecutionResult
from repro.ebpf.verifier import Verifier, VerifierReport

__all__ = [
    "Instruction",
    "Opcode",
    "Program",
    "BPF_REG_COUNT",
    "assemble",
    "ProgramBuilder",
    "BpfMap",
    "HashMap",
    "HelperRegistry",
    "standard_helpers",
    "BpfVm",
    "ExecutionResult",
    "Verifier",
    "VerifierReport",
]
