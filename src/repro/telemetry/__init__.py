"""The unified telemetry plane: one metrics registry + span tracing.

The paper's central quantitative claims — predictability (p99/p50 ~= 1,
§2), energy per operation, and reconfiguration timescales — are all
*measurements of the substrate*. This package is the one place those
measurements live:

* a deterministic :class:`MetricsRegistry` of counters, gauges and
  fixed-bucket histograms (with exact quantiles), addressed by
  hierarchical component paths such as ``dpu0.net.port0.rx_frames``;
* a :class:`Tracer` whose :class:`Span` trees nest via the simulated
  clock, so a single KV get renders as NIC -> transport -> NVMe -> PCIe;
* canonical byte snapshots: the same seed produces byte-identical
  telemetry, extending the fault-schedule reproducibility contract
  (``FaultInjector.schedule_bytes``) to every metric in the system.

Every :class:`repro.sim.Simulator` owns a lazily-created registry
(``sim.telemetry``) and tracer (``sim.tracer``); every substrate model
emits into them. The registry is the only counting idiom: an owner
holds its ``Counter``s, writes with ``.inc()``, and exposes a read-only
property where someone reads the value.

On top of the in-process plane sit the export-and-watch layers:

* :mod:`repro.telemetry.export` — Prometheus text exposition of the
  registry and Chrome trace-event JSON of the tracer;
* :mod:`repro.telemetry.timeseries` — a clock-driven :class:`Sampler`
  snapshotting metrics into ring-buffered :class:`Series` with windowed
  aggregation (rate/mean/max/quantile);
* :mod:`repro.telemetry.slo` — declarative :class:`SloRule` objectives
  evaluated on sampler ticks into a deterministic alert log.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "export": ("chrome_trace_json", "prometheus_text", "trace_events"),
    "flightrec": ("FlightRecorder",),
    "metrics": ("Counter", "Gauge", "Histogram", "Metric", "MetricScope",
                "MetricsRegistry", "percentile"),
    "slo": ("SloAlert", "SloMonitor", "SloRule"),
    "timeseries": ("Sampler", "Series"),
    "tracing": ("NULL_SPAN", "Span", "TraceContext", "Tracer"),
})
