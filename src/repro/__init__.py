"""Hyperion: a simulated CPU-free DPU.

A reproduction of *"CPU-free Computing: A Vision with a Blueprint"*
(Trivedi & Brunella, HotOS 2023) as a Python library: the Hyperion DPU's
hardware substrates (FPGA fabric, self-hosted PCIe + NVMe, 100 GbE), its
software architecture (single-level segment store, eBPF-as-IR with a
verifier and an HDL backend, annotation-driven file access, transports and
storage services), the paper's §2.4 workloads, the CPU-centric baseline it
argues against, and an evaluation harness that regenerates every table,
figure, and quantitative claim.

Quickstart::

    from repro import HyperionDpu, Network, Simulator

    sim = Simulator()
    dpu = HyperionDpu(sim, Network(sim))
    sim.run_process(dpu.boot())
    segment = dpu.store.allocate(4096, durable=True)
    dpu.store.write(segment.oid, b"hello, CPU-free world")

See ``examples/`` for complete scenarios and ``python -m repro.eval`` for
the paper-artifact reproductions.
"""

from repro.sim import Simulator
from repro.hw.net import Network
from repro.dpu import HyperionDpu, OsShell, SlotScheduler
from repro.ebpf import BpfVm, ProgramBuilder, Verifier, assemble
from repro.hdl import HardwarePipeline, compile_program
from repro.memory import PlacementHint, SegmentLocation, SingleLevelStore

__version__ = "0.1.0"

__all__ = [
    "Simulator",
    "Network",
    "HyperionDpu",
    "OsShell",
    "SlotScheduler",
    "assemble",
    "BpfVm",
    "ProgramBuilder",
    "Verifier",
    "compile_program",
    "HardwarePipeline",
    "SingleLevelStore",
    "SegmentLocation",
    "PlacementHint",
    "__version__",
]
