"""The traffic plane: workload generators and SLO-driven autoscaling.

This package turns the sharded data plane into something that serves
*traffic* rather than test loops:

* :mod:`repro.workload.spec` — declarative scenarios: tenants ×
  operation mixes × arrival curves (steady/diurnal/burst/step) with
  Zipfian key popularity (:mod:`repro.workload.popularity`);
* :mod:`repro.workload.generator` — the open-loop (arrival-curve-driven,
  simulated millions of independent users) generator driving
  :class:`~repro.sharding.ShardedKvCluster` through per-tenant
  :class:`~repro.sharding.ShardedKvClient` handles;
* :mod:`repro.workload.autoscaler` — the control loop: SLO firings
  from :class:`~repro.telemetry.slo.SloMonitor` drive
  :class:`~repro.sharding.ShardMigrator` add/remove-DPU with
  dwell/cooldown hysteresis.

``python -m repro.workload`` previews a spec's deterministic arrival
stream; ``docs/WORKLOADS.md`` is the operator's handbook; experiment
E20 (``python -m repro.eval e20``) compares static vs. SLO-driven
capacity under a compressed daily curve.
"""

from repro.workload.autoscaler import Autoscaler, AutoscalerPolicy
from repro.workload.generator import (
    OpenLoopTraffic,
    arrival_preview,
)
from repro.workload.popularity import ZipfKeys
from repro.workload.spec import (
    BurstCurve,
    DiurnalCurve,
    OpMix,
    StepCurve,
    SteadyCurve,
    TenantSpec,
    WorkloadSpec,
)

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "BurstCurve",
    "DiurnalCurve",
    "OpMix",
    "OpenLoopTraffic",
    "StepCurve",
    "SteadyCurve",
    "TenantSpec",
    "WorkloadSpec",
    "ZipfKeys",
    "arrival_preview",
]
