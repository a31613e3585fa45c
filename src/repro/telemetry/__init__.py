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

from repro.telemetry.export import (
    chrome_trace_json,
    parse_prometheus_text,
    prometheus_text,
    trace_events,
)
from repro.telemetry.flightrec import FlightRecorder
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricScope,
    MetricsRegistry,
    percentile,
)
from repro.telemetry.slo import SloAlert, SloMonitor, SloRule
from repro.telemetry.timeseries import Sampler, Series
from repro.telemetry.tracing import NULL_SPAN, Span, TraceContext, Tracer

__all__ = [
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricScope",
    "MetricsRegistry",
    "percentile",
    "Span",
    "TraceContext",
    "Tracer",
    "NULL_SPAN",
    "FlightRecorder",
    "prometheus_text",
    "parse_prometheus_text",
    "chrome_trace_json",
    "trace_events",
    "Sampler",
    "Series",
    "SloRule",
    "SloAlert",
    "SloMonitor",
]
