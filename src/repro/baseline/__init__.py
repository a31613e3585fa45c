"""The CPU-centric baseline Hyperion argues against.

A conventional server: NIC interrupts, syscalls, kernel/user copies, CPU
software processing with scheduling jitter, and the CPU as the mediator of
every NIC<->SSD transfer. Experiments E1/E3/E6/E9 run the same workloads
through this model and through the DPU path.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cpu": ("CpuModel", "CpuCosts"),
    "os_model": ("OsModel", "OsCosts"),
    "server": ("ConventionalServer", "SUPERMICRO_X12"),
    "datapath": ("CpuCentricDatapath",),
})
