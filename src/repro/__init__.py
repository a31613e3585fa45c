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

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__version__ = "0.1.0"


def lazy_exports(package: str, exports: Dict[str, Tuple[str, ...]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """The PEP 562 hooks that serve *package*'s public names.

    *exports* maps each submodule (relative to *package*) to the names
    it defines and the package exports. Importing the package loads none
    of its submodules: a name loads the module that defines it on first
    use and is then kept in the package's namespace, so a later lookup
    is a plain attribute read. Returns ``(__getattr__, __dir__,
    __all__)`` for the package to bind; ``__all__`` and ``dir()`` list
    exactly the map.
    """
    home = {name: f"{package}.{module}"
            for module, names in exports.items() for name in names}
    served = sys.modules[package]
    public = list(home)

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name]), name)
        setattr(served, name, value)
        return value

    def __dir__() -> List[str]:
        return list(public)

    return __getattr__, __dir__, public


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "sim.engine": ("Simulator",),
    "hw.net.switch": ("Network",),
    "dpu.hyperion": ("HyperionDpu",),
    "dpu.osshell": ("OsShell",),
    "dpu.tenancy": ("SlotScheduler",),
    "ebpf.vm": ("BpfVm",),
    "ebpf.verifier": ("Verifier",),
    "ebpf.asm": ("assemble",),
    "hdl.engine": ("HardwarePipeline", "compile_program"),
    "memory.segments": ("PlacementHint", "SegmentLocation"),
    "memory.store": ("SingleLevelStore",),
})
