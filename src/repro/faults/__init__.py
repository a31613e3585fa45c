"""Deterministic fault injection for every substrate (robustness layer).

The paper claims a CPU-free DPU can "boot, recover, and serve without a
host" (§2.1); this package turns that claim into a testable property. A
:class:`FaultPlan` names faults against component ids on the simulated
clock; a :class:`FaultInjector` evaluates it wherever hardware models
consult it (links, flash dies, NVMe controllers, PCIe links, whole DPUs,
WAN links); the recovery machinery — RPC backoff/deadlines, replicated
cluster failover, geo-replication — rides through what the plan throws
at it. E13 (``repro.eval.chaos``) measures the result.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "injector": ("FaultInjector", "FaultRecord", "node_outage_controller"),
    "plan": ("FaultKind", "FaultPlan", "FaultSpec"),
})
