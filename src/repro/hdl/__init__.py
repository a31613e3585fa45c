"""eBPF-to-HDL compilation: the backend half of the paper's §2.2 pipeline.

The flow mirrors the open-source compilers the paper builds on (hXDP, eHDL,
eBPF program warping): take verified eBPF, extract instruction-level
parallelism from the dataflow graph, fuse adjacent instructions into macro
operations, schedule the result into pipeline stages, emit a Verilog-like
module, and estimate FPGA area and clock frequency. The executable
:class:`HardwarePipeline` model gives the compiled program its defining
hardware property: fixed-latency, zero-jitter execution (paper §2's
"predictable performance").
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dataflow": ("DataflowGraph", "build_blocks", "build_dfg"),
    "fusion": ("FusedOp", "fuse_instructions"),
    "schedule": ("PipelineSchedule", "schedule_pipeline"),
    "codegen": ("generate_verilog",),
    "resources": ("AreaEstimate", "estimate_area", "estimate_fmax"),
    "engine": ("CompiledPipeline", "HardwarePipeline", "compile_program"),
})
