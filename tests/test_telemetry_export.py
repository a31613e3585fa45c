"""Exposition formats: Prometheus text round-trip, Chrome trace JSON."""

import json

import pytest

from repro.eval.telemetry import run_telemetry
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    prometheus_text,
    trace_events,
)

from tests.manual_clock import ManualClock
from tests.prometheus_reference import parse_prometheus_text


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("net.link.a.frames_sent").inc(7)
    reg.gauge("dpu0.queue.depth").set(2.5)
    h = reg.histogram("rpc.call_latency")
    for value in (1e-6, 5e-6, 2e-3):
        h.observe(value)
    return reg


class TestPrometheusText:
    def test_round_trips_through_the_parser(self):
        reg = _sample_registry()
        families = parse_prometheus_text(prometheus_text(reg))
        counter = families["repro_net_link_a_frames_sent"]
        assert counter.kind == "counter"
        name, labels, value = counter.samples[0]
        assert labels["path"] == "net.link.a.frames_sent"
        assert value == 7.0
        gauge = families["repro_dpu0_queue_depth"]
        assert gauge.kind == "gauge"
        assert gauge.samples[0][2] == 2.5

    def test_histogram_buckets_are_cumulative_and_close_at_inf(self):
        reg = _sample_registry()
        families = parse_prometheus_text(prometheus_text(reg))
        hist = families["repro_rpc_call_latency"]
        assert hist.kind == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in hist.samples
            if name.endswith("_bucket")
        ]
        counts = [value for __, value in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 3.0
        count = next(
            value for name, __, value in hist.samples
            if name.endswith("_count")
        )
        assert count == 3.0
        total = next(
            value for name, __, value in hist.samples
            if name.endswith("_sum")
        )
        assert total == pytest.approx(1e-6 + 5e-6 + 2e-3)

    def test_sanitization_collisions_get_numeric_suffixes(self):
        reg = MetricsRegistry()
        reg.counter("link#1.frames").inc(1)
        reg.counter("link_1.frames").inc(2)
        families = parse_prometheus_text(prometheus_text(reg))
        assert "repro_link_1_frames" in families
        assert "repro_link_1_frames_2" in families
        # The path label disambiguates regardless of the family name.
        paths = {
            family.samples[0][1]["path"]
            for family in families.values() if family.samples
        }
        assert paths == {"link#1.frames", "link_1.frames"}

    def test_same_state_same_bytes(self):
        assert prometheus_text(_sample_registry()) == \
            prometheus_text(_sample_registry())

    def test_real_run_exposition_parses_cleanly(self):
        report = run_telemetry()
        families = parse_prometheus_text(report.prometheus)
        assert families, "an exercised run must expose families"
        kinds = {family.kind for family in families.values()}
        assert kinds <= {"counter", "gauge", "histogram"}
        for family in families.values():
            assert family.samples, f"{family.name} exposed no samples"

    def test_malformed_sample_line_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x{path=}} not-a-number")


def _nesting_by_time_containment(events):
    """Reconstruct each X event's depth purely from time containment."""
    spans = [e for e in events if e["ph"] == "X"]
    depths = []
    for event in spans:
        start, end = event["ts"], event["ts"] + event["dur"]
        depth = sum(
            1 for other in spans
            if other is not event
            and other["ts"] <= start and end <= other["ts"] + other["dur"]
        )
        depths.append(depth)
    return spans, depths


class TestChromeTrace:
    def test_manual_spans_emit_complete_events(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        tracer.enable()
        with tracer.span("outer", "transport"):
            clock.advance(1.0)
            with tracer.span("inner", "nvme") as inner:
                clock.advance(0.5)
                inner.annotate(lba=7)
        events = trace_events(tracer)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        spans = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["outer", "inner"]
        outer, inner = spans
        assert outer["dur"] == pytest.approx(1.5e6)  # microseconds
        assert inner["cat"] == "nvme"
        assert inner["args"]["lba"] == "7"
        assert inner["args"]["depth"] == 1

    def test_kv_get_trace_loads_and_nests(self):
        """The 5-substrate KV-get tree survives the JSON round trip with
        its nesting intact (viewer reconstructs depth from containment)."""
        report = run_telemetry()
        payload = json.loads(report.chrome_trace)
        events = payload["traceEvents"]
        spans, containment_depths = _nesting_by_time_containment(events)
        assert len(spans) >= 5
        substrates = {e["cat"] for e in spans}
        assert {"transport", "net", "nvme"} <= substrates
        for event, expected_depth in zip(spans, containment_depths):
            assert event["args"]["depth"] == expected_depth, (
                f"span {event['name']} claims depth "
                f"{event['args']['depth']} but time containment says "
                f"{expected_depth}"
            )
        assert max(containment_depths) >= 2

    def test_same_run_same_json_bytes(self):
        first = run_telemetry().chrome_trace
        second = run_telemetry().chrome_trace
        assert first == second
