"""Causal distributed tracing, the flight recorder, and exemplars.

The observability-plane contract: per-flow span trees stay intact
across RPC, shard, WAN, and replication hops; trace ids and sampling
are ``PYTHONHASHSEED``-independent; the flight recorder captures
post-mortems when incidents open; histogram exemplars link tail
buckets back to sampled traces.
"""

import pytest

from repro.eval.chaos import run_chaos
from repro.eval.trace import run_trace
from repro.georep import Consistency, GeoCluster, GeoKvClient
from repro.sim import Simulator
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    parse_prometheus_text,
    prometheus_text,
)
from repro.telemetry.flightrec import JOURNAL_LIMIT

from tests.manual_clock import ManualClock


class TestSpanTree:
    def test_leaf_depth_is_zero(self):
        """``depth()`` counts levels *below* a span: a leaf is 0."""
        tracer = Tracer(ManualClock()).enable()
        with tracer.span("root", "transport") as root:
            with tracer.span("mid", "net"):
                with tracer.span("leaf", "nvme"):
                    pass
        leaf = root.children[0].children[0]
        assert leaf.depth() == 0
        assert root.children[0].depth() == 1
        assert root.depth() == 2

    def test_trace_ids_are_hashseed_independent(self):
        """Flow ids come from blake2b over (seed, flow #), never
        ``hash()`` — pinned values hold on every PYTHONHASHSEED."""
        tracer = Tracer(ManualClock()).enable()
        context = tracer.flow()
        assert context.trace_id == "69f9104474a7f58c"  # blake2b(trace/0/1)
        seeded = Tracer(ManualClock()).enable(seed=5)
        assert seeded.flow().trace_id == "5ca92d4bab5f1b49"

    def test_head_sampling_is_deterministic(self):
        def decisions():
            tracer = Tracer(ManualClock()).enable(sample_rate=0.25, seed=3)
            return [tracer.flow() is not None for __ in range(64)]

        first, second = decisions(), decisions()
        assert first == second
        assert any(first) and not all(first)


class TestInterleavedFlows:
    def _kv_stack(self, sim):
        from repro.hw.net import Network
        from repro.hw.nvme import Namespace, NvmeController
        from repro.hw.pcie.link import PcieLink
        from repro.storage.kvssd import KvSsd, KvSsdClient, KvSsdService
        from repro.transport import RpcClient, RpcServer, UdpSocket

        network = Network(sim)
        controller = NvmeController(
            sim, "dpu0-nvme",
            link=PcieLink(sim, lanes=4, component="dpu0.pcie"),
        )
        controller.add_namespace(Namespace(1, 16384))
        device = KvSsd(sim, controller, memtable_limit=4)
        server = RpcServer(sim, UdpSocket(sim, network.endpoint("dpu0")))
        KvSsdService(server, device)
        stubs = [
            KvSsdClient(
                RpcClient(sim, UdpSocket(sim, network.endpoint(name))),
                "dpu0",
            )
            for name in ("host-a", "host-b")
        ]
        return stubs

    def test_two_interleaved_gets_build_separate_trees(self):
        """Two concurrent KV gets: each flow's spans form one intact
        tree under its own trace id, never cross-attached."""
        sim = Simulator()
        stub_a, stub_b = self._kv_stack(sim)
        # Preload untraced, then trace only the two racing gets.
        sim.run_process(stub_a.put(b"ka", b"va"))
        sim.run_process(stub_b.put(b"kb", b"vb"))
        tracer = sim.tracer.enable()
        ctx_a, ctx_b = tracer.flow(), tracer.flow()
        assert ctx_a.trace_id != ctx_b.trace_id

        results = {}

        def op(tag, stub, key):
            results[tag] = yield from stub.get(key)

        sim.process(tracer.drive(op("a", stub_a, b"ka"), ctx_a))
        sim.process(tracer.drive(op("b", stub_b, b"kb"), ctx_b))
        sim.run()
        assert results == {"a": b"va", "b": b"vb"}

        trees = {}
        for root in tracer.roots:
            trees.setdefault(root.trace_id, root)
        for context in (ctx_a, ctx_b):
            root = trees[context.trace_id]
            spans = list(root.walk())
            assert all(s.trace_id == context.trace_id for s in spans)
            assert root.name == "rpc.call"
            # The get really descended through the stack, not a stub.
            assert {"transport", "net", "kvssd"} <= {
                s.substrate for s in spans
            }
        ids_a = {id(s) for s in trees[ctx_a.trace_id].walk()}
        ids_b = {id(s) for s in trees[ctx_b.trace_id].walk()}
        assert not ids_a & ids_b


class TestGeorepTracing:
    def test_quorum_put_is_one_cross_region_tree(self):
        """The acceptance demo: a traced quorum geo put is ONE causal
        tree — same trace id on every span, >= 2 regions, >= 4
        substrates (transport, net, wan, georep/kvssd)."""
        sim = Simulator()
        tracer = sim.tracer.enable()
        cluster = GeoCluster(
            sim, ("east", "west", "south"), consistency=Consistency.QUORUM,
        )
        client = GeoKvClient(sim, cluster, "probe", home="east")
        context = tracer.flow()
        sim.process(tracer.drive(client.put(b"k", b"v"), context))
        sim.run(until=0.08)

        roots = [r for r in tracer.roots if r.trace_id == context.trace_id]
        assert roots, "traced put produced no root span"
        spans = list(roots[0].walk())
        assert all(s.trace_id == context.trace_id for s in spans)
        regions = {
            s.attrs["region"] for s in spans if "region" in s.attrs
        }
        assert len(regions) >= 2
        substrates = {s.substrate for s in spans if s.substrate}
        assert len(substrates) >= 4
        assert {"transport", "net", "wan", "georep"} <= substrates

    def test_geo_ops_span_free_when_tracing_off(self, monkeypatch):
        """With tracing off the whole georep path — gateway verbs, log
        shipping, WAN hops, remote apply — constructs zero Spans."""
        import repro.telemetry.tracing as tracing

        def exploding_init(self, *args, **kwargs):
            raise AssertionError("Span constructed while tracing disabled")

        monkeypatch.setattr(tracing.Span, "__init__", exploding_init)

        sim = Simulator()
        cluster = GeoCluster(
            sim, ("east", "west"), consistency=Consistency.QUORUM,
        )
        client = GeoKvClient(sim, cluster, "probe", home="east")
        done = []

        def scenario():
            yield from client.put(b"k", b"v")
            value = yield from client.get(b"k")
            yield from client.delete(b"k")
            done.append(value)

        sim.process(scenario())
        sim.run(until=0.08)
        assert done == [b"v"]
        assert not sim.tracer.enabled


class TestTraceCli:
    def test_report_is_deterministic(self):
        first = run_trace()
        second = run_trace()
        assert first.canonical_bytes() == second.canonical_bytes()

    def test_showcase_and_rankings(self):
        report = run_trace()
        assert len(report.flows) == 5
        showcase = next(
            f for f in report.flows if f.trace_id == report.showcase
        )
        assert showcase.name == "put/alpha"
        assert len(showcase.regions) >= 2
        assert {"transport", "net", "wan"} <= set(showcase.substrates)
        # Rankings: descending duration, and the critical path starts
        # at the showcase root and ends on a leaf.
        durations = [f.duration for f in report.slowest]
        assert durations == sorted(durations, reverse=True)
        assert report.critical_path[0].lstrip().startswith("client.put")
        assert len(report.critical_path) >= 3


class TestFlightRecorder:
    def _tree(self, clock):
        tracer = Tracer(clock).enable()
        context = tracer.flow()
        with tracer.begin(context, "rpc.call", "transport"):
            clock.advance(1e-3)
        return tracer.roots[0]

    def test_journal_ring_is_bounded(self):
        clock = ManualClock()
        recorder = FlightRecorder(clock)
        for index in range(JOURNAL_LIMIT + 2):
            clock.advance(1.0)
            recorder.record("breaker", f"event-{index}")
        lines = recorder.journal_lines()
        assert len(lines) == JOURNAL_LIMIT
        assert lines[0].endswith("[breaker] event-2")
        assert lines[-1].endswith(f"[breaker] event-{JOURNAL_LIMIT + 1}")
        assert recorder.recorded == JOURNAL_LIMIT + 2

    def test_dump_snapshots_journal_and_traces(self):
        clock = ManualClock()
        recorder = FlightRecorder(clock)
        recorder.record("slo", "slo firing rule=p99")
        root = self._tree(clock)
        recorder.record_trace(root)
        dump = recorder.dump("slo-firing:p99").decode()
        assert "trigger=slo-firing:p99" in dump
        assert "[slo] slo firing rule=p99" in dump
        assert f"trace {root.trace_id}:" in dump
        assert "rpc.call [transport]" in dump
        assert recorder.dump_triggers() == ("slo-firing:p99",)
        assert recorder.last_dump() == dump.encode()

    def test_empty_dump_says_so(self):
        recorder = FlightRecorder(ManualClock())
        dump = recorder.dump("manual").decode()
        assert "(empty)" in dump
        assert "(none)" in dump

    def test_simulator_owns_one_lazily(self):
        sim = Simulator()
        assert sim.recorder is sim.recorder
        assert isinstance(sim.recorder, FlightRecorder)


class TestExemplars:
    def test_prometheus_roundtrip(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("rpc.call.latency")
        histogram.observe(0.5)
        histogram.exemplar(0.5, "deadbeef01234567")
        text = prometheus_text(registry)
        assert 'trace_id="deadbeef01234567"' in text
        families = parse_prometheus_text(text)
        captured = {
            sample: exemplar
            for family in families.values()
            for sample, exemplar in family.exemplars.items()
        }
        assert captured, "exemplar did not survive the round trip"
        (labels, value), = [
            exemplar for exemplar in captured.values()
        ]
        assert labels == {"trace_id": "deadbeef01234567"}
        assert value == 0.5

    def test_absent_exemplars_change_nothing(self):
        registry = MetricsRegistry()
        registry.histogram("rpc.call.latency").observe(0.5)
        assert " # {" not in prometheus_text(registry)


class TestChaosPostMortem:
    # The same scaled-down storm the telemetry determinism tests use.
    CONFIG = dict(seed=11, dpu_count=3, replication=2, ops=48, preload=12)

    def test_slo_firing_produces_flight_dump(self):
        report = run_chaos(**self.CONFIG)
        assert "slo-firing:op-p99" in report.flight_triggers
        assert report.traces_recorded >= 1
        dump = report.flight_dump.decode()
        assert "slo firing rule=op-p99" in dump
        assert "journal (last" in dump
        assert "trace " in dump

    def test_exemplars_reach_the_prometheus_export(self):
        report = run_chaos(**self.CONFIG)
        families = parse_prometheus_text(report.prometheus.decode())
        trace_ids = {
            exemplar[0]["trace_id"]
            for family in families.values()
            for exemplar in family.exemplars.values()
        }
        assert trace_ids, "no exemplar survived the storm"
        assert all(
            len(tid) == 16 and set(tid) <= set("0123456789abcdef")
            for tid in trace_ids
        )

    def test_tracing_leaves_canonical_artifacts_untouched(self):
        """Sampled tracing + exemplars ride along without perturbing
        the storm's canonical bytes: the digests the benchmark gate
        pins (telemetry, schedule, alert log) only depend on the
        seed."""
        first = run_chaos(**self.CONFIG)
        second = run_chaos(**self.CONFIG)
        assert first.telemetry == second.telemetry
        assert first.schedule == second.schedule
        assert first.slo_alert_log == second.slo_alert_log
        assert first.prometheus == second.prometheus
        assert first.flight_dump == second.flight_dump
