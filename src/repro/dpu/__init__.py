"""The Hyperion DPU: the paper's blueprint, assembled.

* :mod:`repro.dpu.schematic` — the Figure 2 component graph;
* :mod:`repro.dpu.hyperion` — the composed device: FPGA fabric + ICAP,
  2x100 GbE ports, a self-hosted PCIe root complex with four bifurcated
  bridges and NVMe SSDs, the AXI range split, and the single-level segment
  store; ``boot()`` runs the standalone bring-up of §2;
* :mod:`repro.dpu.osshell` — the network control plane ("OS-shell") that
  loads authorized, encrypted bitstreams into slots with no CPU anywhere;
* :mod:`repro.dpu.tenancy` — slot scheduling for multi-tenant use.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "schematic": ("SchematicNode", "build_schematic", "schematic_table"),
    "hyperion": ("HyperionDpu", "BootReport"),
    "osshell": ("OsShell",),
    "tenancy": ("SlotScheduler", "TenantRequest"),
})
