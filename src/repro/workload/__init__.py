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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "autoscaler": ("Autoscaler", "AutoscalerPolicy"),
    "generator": ("OpenLoopTraffic", "arrival_preview"),
    "popularity": ("ZipfKeys",),
    "spec": ("BurstCurve", "DiurnalCurve", "OpMix", "StepCurve", "SteadyCurve",
             "TenantSpec", "WorkloadSpec"),
})
