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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "isa": ("BPF_REG_COUNT", "Instruction", "Opcode", "Program"),
    "asm": ("assemble",),
    "maps": ("HashMap",),
    "helpers": ("HELPERS",),
    "vm": ("BpfVm", "ExecutionResult"),
    "verifier": ("Verifier", "VerifierReport"),
})
