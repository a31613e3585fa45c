"""The unified telemetry plane: registry, histograms, tracing, determinism."""

import random
import statistics

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.chaos import run_chaos
from repro.eval.telemetry import run_telemetry
from repro.sim import Simulator
from repro.telemetry import (
    NULL_SPAN,
    Histogram,
    MetricScope,
    MetricsRegistry,
    Tracer,
    percentile,
)

from tests.manual_clock import ManualClock


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([3.0], 0.0) == 3.0
        assert percentile([3.0], 1.0) == 3.0

    def test_interpolates(self):
        assert percentile([0.0, 1.0], 0.5) == 0.5

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 1.5)
        with pytest.raises(ConfigurationError):
            percentile([1.0], -0.1)

    def test_matches_statistics_quantiles(self):
        """Property-style: random samples against the stdlib's inclusive
        quantiles, which use the same linear-interpolation definition."""
        rng = random.Random(2023)
        for trial in range(25):
            n = rng.randint(2, 200)
            samples = [rng.expovariate(1.0) for _ in range(n)]
            cut = statistics.quantiles(samples, n=100, method="inclusive")
            for pct in (1, 10, 25, 50, 75, 90, 99):
                assert percentile(samples, pct / 100) == pytest.approx(
                    cut[pct - 1], rel=1e-12, abs=1e-15
                )


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("a.ops")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("a.depth")
        g.set(3.5)
        g.dec()
        assert g.value == 2.5
        h = reg.histogram("a.lat")
        h.observe(1e-6)
        assert h.count == 1

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("c").inc(-1)

    def test_idempotent_and_type_conflict(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_unique_scope_suffixes(self):
        reg = MetricsRegistry()
        assert reg.unique_scope("link").prefix == "link"
        assert reg.unique_scope("link").prefix == "link#1"
        assert reg.unique_scope("link").prefix == "link#2"

    def test_rename_moves_metrics(self):
        reg = MetricsRegistry()
        scope = reg.unique_scope("link")
        counter = scope.counter("frames")
        counter.inc()
        scope.rename("dpu0.uplink")
        assert "dpu0.uplink.frames" in reg
        assert "link.frames" not in reg
        assert counter.name == "dpu0.uplink.frames"
        assert reg.counter("dpu0.uplink.frames").value == 1

    def test_snapshot_is_sorted_canonical_bytes(self):
        reg = MetricsRegistry()
        reg.counter("b.second").inc(2)
        reg.counter("a.first").inc(1)
        snap = reg.snapshot_bytes()
        assert isinstance(snap, bytes)
        lines = snap.decode().splitlines()
        assert lines == sorted(lines)
        # Identical content => identical bytes, regardless of creation order.
        other = MetricsRegistry()
        other.counter("a.first").inc(1)
        other.counter("b.second").inc(2)
        assert other.snapshot_bytes() == snap

    def test_standalone_scopes_are_isolated(self):
        a = MetricScope.standalone("lsm")
        b = MetricScope.standalone("lsm")
        a.counter("flushes").inc()
        assert b.counter("flushes").value == 0


class TestHistogramQuantiles:
    def test_quantile_matches_statistics(self):
        rng = random.Random(99)
        h = Histogram("lat")
        samples = [rng.lognormvariate(0, 1) for _ in range(500)]
        for s in samples:
            h.observe(s)
        cut = statistics.quantiles(samples, n=100, method="inclusive")
        assert h.quantile(0.50) == pytest.approx(cut[49], rel=1e-12)
        assert h.quantile(0.99) == pytest.approx(cut[98], rel=1e-12)
        assert h.mean == pytest.approx(statistics.mean(samples))
        assert h.pstdev == pytest.approx(statistics.pstdev(samples))

    def test_bucket_counts_total(self):
        h = Histogram("lat")
        for value in (1e-9, 1e-6, 1e-3, 1.0, 100.0):
            h.observe(value)
        assert sum(count for __, count in h.bucket_counts()) == h.count == 5

    def test_empty_quantile_raises_naming_the_metric(self):
        """A quantile of nothing is a bug in the caller, not 0.0 — and the
        error must say which histogram so the bug is findable."""
        h = Histogram("rpc.client.dpu0.call_latency")
        with pytest.raises(ValueError) as exc:
            h.quantile(0.99)
        assert "rpc.client.dpu0.call_latency" in str(exc.value)
        assert "empty" in str(exc.value)
        # One observation later the same call works.
        h.observe(1e-6)
        assert h.quantile(0.99) == 1e-6

    def test_empty_histogram_still_renders(self):
        """The raise must not leak into canonical rendering paths: an
        empty histogram snapshots and renders as count=0."""
        reg = MetricsRegistry()
        reg.histogram("quiet.lat")
        assert b"quiet.lat" in reg.snapshot_bytes()
        assert "count=0" in reg.render()


class TestLazyHistogramMaterialization:
    """``observe`` is a bare append; the deferred sum/bin accounting must
    be *bit-identical* to eager per-observe accounting, reads interleaved
    or not."""

    def test_interleaved_reads_match_eager_accounting(self):
        from bisect import bisect_left

        rng = random.Random(7)
        h = Histogram("lat")
        eager_sum = 0.0
        eager_counts = [0] * (len(h.bounds) + 1)
        for index in range(2000):
            value = rng.lognormvariate(-6, 2)
            h.observe(value)
            eager_sum += value
            eager_counts[bisect_left(h.bounds, value)] += 1
            if index % 157 == 0:
                # Interleaved reads materialize partial tails; the float
                # sum must still equal sequential eager += exactly.
                assert h.sum == eager_sum
                assert h.count == index + 1
        assert h.sum == eager_sum
        assert [count for __, count in h.bucket_counts()] == eager_counts

    def test_snapshot_line_independent_of_read_pattern(self):
        rng = random.Random(13)
        samples = [rng.expovariate(1000.0) for __ in range(500)]
        read_often, read_once = Histogram("lat"), Histogram("lat")
        for index, value in enumerate(samples):
            read_often.observe(value)
            read_once.observe(value)
            if index % 17 == 0:
                read_often.bucket_counts()
                assert read_often.mean >= 0
        assert read_often.snapshot_line() == read_once.snapshot_line()

    def test_observe_itself_defers_all_accounting(self):
        h = Histogram("lat")
        h.observe(1e-3)
        # Nothing materialized until a read asks for it.
        assert h._summed == 0 and h._binned == 0
        assert h.sum == 1e-3
        assert h._summed == 1


class TestSpanFreeWhenTracingOff:
    def test_no_span_constructed_across_substrates(self, monkeypatch):
        """With tracing off, a KV get crossing transport -> net -> kvssd
        -> nvme -> pcie must construct zero Span objects: every
        instrumented site has to hit the ``NULL_SPAN`` fast path."""
        import repro.telemetry.tracing as tracing
        from repro.hw.net import Network
        from repro.hw.nvme import Namespace, NvmeController
        from repro.hw.pcie.link import PcieLink
        from repro.storage.kvssd import KvSsd, KvSsdClient, KvSsdService
        from repro.transport import RpcClient, RpcServer, UdpSocket

        def exploding_init(self, *args, **kwargs):
            raise AssertionError("Span constructed while tracing disabled")

        monkeypatch.setattr(tracing.Span, "__init__", exploding_init)

        sim = Simulator()
        network = Network(sim)
        controller = NvmeController(
            sim, "dpu0-nvme",
            link=PcieLink(sim, lanes=4, component="dpu0.pcie"),
        )
        controller.add_namespace(Namespace(1, 16384))
        device = KvSsd(sim, controller, memtable_limit=4)
        server = RpcServer(sim, UdpSocket(sim, network.endpoint("dpu0")))
        KvSsdService(server, device)
        stub = KvSsdClient(
            RpcClient(sim, UdpSocket(sim, network.endpoint("host"))), "dpu0"
        )

        def scenario():
            for index in range(8):
                yield from stub.put(f"key:{index:02d}".encode(), b"v" * 64)
            value = yield from stub.get(b"key:03")
            return value

        assert sim.run_process(scenario()) == b"v" * 64
        assert not sim.tracer.enabled


class TestTracer:
    def test_disabled_returns_null_span(self):
        sim = Simulator()
        span = sim.tracer.span("x", "net")
        assert span is NULL_SPAN

    def test_nesting_follows_the_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        tracer.enable()
        with tracer.span("outer", "transport"):
            clock.advance(1.0)
            with tracer.span("inner", "nvme") as inner:
                clock.advance(0.5)
                inner.annotate(lba=7)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.duration == pytest.approx(1.5)
        assert root.children[0].name == "inner"
        assert root.children[0].attrs["lba"] == 7
        assert tracer.substrates() == {"transport", "nvme"}

    def test_traced_kv_get_crosses_substrates(self):
        """The acceptance demo: one KV get spans >= 3 substrates."""
        report = run_telemetry()
        assert report.value == b"v" * 64
        assert len(report.substrates) >= 3
        assert {"net", "nvme", "transport"} <= set(report.substrates)
        # The tree actually nests: rpc.call -> ... -> nvme.cmd.
        assert report.span_count >= 5
        max_depth = max(
            (line.count("  ") for line in report.trace.splitlines()), default=0
        )
        assert max_depth >= 2


class TestLegacyFacades:
    """Counter views on the owner read the registry (the class name is
    kept so the test id stays stable)."""

    def test_link_stats_read_through(self):
        from repro.hw.net import Frame, Network

        sim = Simulator()
        network = Network(sim)
        a = network.endpoint("a")
        network.endpoint("b")

        def send():
            yield from a.send(Frame("a", "b", None, payload_size=100))

        sim.run_process(send())
        assert sim.telemetry.counter("net.link.a.up.frames_sent").value == 1


class TestDeterministicSnapshots:
    # Small enough to run in a couple of seconds, big enough to exercise
    # retransmits, failover, and the fault storm.
    CONFIG = dict(seed=11, dpu_count=3, replication=2, ops=48, preload=12)

    def test_same_seed_same_bytes(self):
        first = run_chaos(**self.CONFIG)
        second = run_chaos(**self.CONFIG)
        assert first.telemetry, "chaos run produced an empty snapshot"
        assert first.telemetry == second.telemetry
        assert first.schedule == second.schedule
        assert first.availability == second.availability

    def test_different_seed_different_bytes(self):
        first = run_chaos(**self.CONFIG)
        other = run_chaos(**{**self.CONFIG, "seed": 12})
        assert first.telemetry != other.telemetry
