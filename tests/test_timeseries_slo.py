"""Time-series sampling and SLO alerting: series math, sampler cursors,
fire/resolve state machine, and the determinism contract end to end."""

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.chaos import run_chaos
from repro.sim import Simulator
from repro.telemetry import (
    MetricsRegistry,
    Sampler,
    Series,
    SloMonitor,
    SloRule,
)
from repro.telemetry.timeseries import SERIES_CAPACITY

from tests.manual_clock import ManualClock


class TestSeries:
    def test_ring_buffer_keeps_newest(self):
        series = Series("s")
        for tick in range(SERIES_CAPACITY + 2):
            series.append(float(tick), tick * 10.0)
        assert len(series.points) == SERIES_CAPACITY
        assert series.points[0] == (2.0, 20.0)
        last = float(SERIES_CAPACITY + 1)
        assert series.last == (last, last * 10.0)

    def test_rejects_backwards_time(self):
        series = Series("s")
        series.append(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            series.append(0.5, 0.0)

    def test_windowed_aggregation(self):
        series = Series("s")
        for tick in range(10):
            series.append(tick * 1.0, float(tick))
        # The trailing 2 s window ends at the newest point, t=9.
        assert series.window(2.0) == [(7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]
        assert series.mean() == pytest.approx(4.5)
        assert series.max() == 9.0
        # Values 0..9; their interpolated median is 4.5.
        assert series.quantile(0.5) == 4.5
        # Counter slope: value rises 1 per second.
        assert series.rate() == pytest.approx(1.0)
        assert series.rate(duration=3.0) == pytest.approx(1.0)

    def test_empty_aggregation_is_zero(self):
        series = Series("s")
        assert series.rate() == 0.0
        assert series.mean() == 0.0
        assert series.max() == 0.0
        assert series.window() == []


class TestSampler:
    def test_counter_and_gauge_series(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        sampler = Sampler(reg, clock)
        sampler.watch("ops").watch("depth")
        ops = reg.counter("ops")
        depth = reg.gauge("depth")
        for tick in range(3):
            ops.inc(5)
            depth.set(float(tick))
            clock.advance(1.0)
            sampler.sample()
        assert sampler.series("ops").points == \
            ((1.0, 5.0), (2.0, 10.0), (3.0, 15.0))
        assert sampler.series("ops").rate() == pytest.approx(5.0)
        assert sampler.series("depth").last == (3.0, 2.0)
        assert sampler.ticks == 3

    def test_histogram_interval_stats_via_cursor(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        sampler = Sampler(reg, clock)
        sampler.watch("lat")
        hist = reg.histogram("lat")
        hist.observe(1.0)
        hist.observe(3.0)
        clock.advance(1.0)
        sampler.sample()
        # Interval stats cover only this tick's fresh samples.
        assert sampler.series("lat.mean").last == (1.0, 2.0)
        assert sampler.series("lat.max").last == (1.0, 3.0)
        assert sampler.series("lat.count").last == (1.0, 2.0)
        hist.observe(10.0)
        clock.advance(1.0)
        sampler.sample()
        assert sampler.series("lat.mean").last == (2.0, 10.0)
        assert sampler.series("lat.max").last == (2.0, 10.0)
        assert sampler.series("lat.count").last == (2.0, 3.0)

    def test_silent_histogram_leaves_a_gap_not_a_zero(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        sampler = Sampler(reg, clock)
        sampler.watch("lat")
        hist = reg.histogram("lat")
        hist.observe(4.0)
        clock.advance(1.0)
        sampler.sample()
        clock.advance(1.0)
        sampler.sample()  # no fresh samples this tick
        assert len(sampler.series("lat.mean")) == 1
        # ...but the cumulative count series still records every tick.
        assert sampler.series("lat.count").points == ((1.0, 1.0), (2.0, 1.0))

    def test_watch_resolves_lazily(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        sampler = Sampler(reg, clock)
        sampler.watch("late.metric").watch_prefix("rpc")
        clock.advance(1.0)
        assert sampler.sample() == 0  # nothing registered yet, no error
        reg.counter("late.metric").inc()
        reg.counter("rpc.calls").inc(2)
        clock.advance(1.0)
        sampler.sample()
        assert sampler.series("late.metric").last == (2.0, 1.0)
        assert sampler.series("rpc.calls").last == (2.0, 2.0)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ConfigurationError):
            Sampler(MetricsRegistry(), ManualClock(), period=0.0)

    def test_run_drives_workload_and_sampling_together(self):
        sim = Simulator()
        ops = sim.telemetry.counter("work.ops")
        sampler = Sampler(sim.telemetry, sim, period=1e-3)
        sampler.watch("work.ops")

        def workload():
            for __ in range(10):
                yield sim.timeout(1e-3)
                ops.inc()
            return ops.value

        assert sampler.run(sim, workload()) == 10
        series = sampler.series("work.ops")
        assert len(series) >= 9
        assert series.last[1] == pytest.approx(10.0, abs=1.0)

    def test_pump_stops_after_the_tick_that_follows_a_wake(self):
        """``until.wake()`` queues no entry; the pump takes the tick it
        is waiting on and then ends, so the run ends at that tick."""
        sim = Simulator()
        sampler = Sampler(sim.telemetry, sim, period=1e-3)
        done = sim.event()
        ticks_at_wake = []

        def workload():
            yield sim.timeout(3.5e-3)
            ticks_at_wake.append(sampler.ticks)
            eid = sim._eid
            done.wake()
            assert sim._eid == eid

        sim.process(sampler.pump(sim, done))
        sim.run_process(workload())
        assert ticks_at_wake == [3]
        assert sampler.ticks == 4
        assert sim.now == pytest.approx(4e-3)

    def test_snapshot_bytes_are_canonical(self):
        def build():
            reg = MetricsRegistry()
            clock = ManualClock()
            sampler = Sampler(reg, clock)
            sampler.watch("b").watch("a")
            reg.counter("a").inc()
            reg.counter("b").inc(2)
            clock.advance(0.5)
            sampler.sample()
            return sampler.snapshot_bytes()

        first, second = build(), build()
        assert first == second
        lines = first.decode().splitlines()
        assert [line.split()[1] for line in lines] == ["a", "b"]


class TestSloRules:
    def test_parse_full_grammar(self):
        rule = SloRule.parse("rpc.call.latency p99 < 2ms for 10ms")
        assert rule.path == "rpc.call.latency"
        assert rule.stat == "p99"
        assert rule.op == "<"
        assert rule.threshold == pytest.approx(2e-3)
        assert rule.for_duration == pytest.approx(10e-3)
        assert rule.series_name == "rpc.call.latency.p99"

    def test_parse_units_and_bare_numbers(self):
        assert SloRule.parse("x value < 150us").threshold == \
            pytest.approx(1.5e-4)
        assert SloRule.parse("x value < 3ns").threshold == pytest.approx(3e-9)
        assert SloRule.parse("x value >= 0.95").threshold == 0.95
        assert SloRule.parse("x value < 5").for_duration == 0.0

    def test_value_and_rate_read_the_raw_series(self):
        assert SloRule.parse("ops rate > 100").series_name == "ops"
        assert SloRule.parse("depth value < 8").series_name == "depth"

    def test_rejects_malformed_rules(self):
        with pytest.raises(ConfigurationError):
            SloRule.parse("just three tokens")
        with pytest.raises(ConfigurationError):
            SloRule.parse("x p42 < 5")
        with pytest.raises(ConfigurationError):
            SloRule.parse("x value != 5")
        with pytest.raises(ConfigurationError):
            SloRule.parse("x value < 5 within 2ms")


def _monitored_sampler(rules):
    reg = MetricsRegistry()
    clock = ManualClock()
    sampler = Sampler(reg, clock)
    sampler.watch("lat")
    monitor = SloMonitor(sampler, rules)
    return reg.histogram("lat"), clock, sampler, monitor


class TestSloMonitor:
    RULE = "lat p99 < 2.0 for 2s"

    def _tick(self, hist, clock, sampler, value):
        hist.observe(value)
        clock.advance(1.0)
        sampler.sample()

    def test_fires_only_after_continuous_violation(self):
        hist, clock, sampler, monitor = _monitored_sampler(
            [SloRule.parse(self.RULE, name="lat-p99")]
        )
        self._tick(hist, clock, sampler, 5.0)  # breach at t=1
        assert monitor.firing == []
        self._tick(hist, clock, sampler, 5.0)  # still breaching, t=2
        self._tick(hist, clock, sampler, 5.0)  # t=3: 2s continuous -> fire
        assert monitor.firing == ["lat-p99"]
        assert monitor.fired_count("lat-p99") == 1

    def test_healthy_sample_resets_the_for_timer(self):
        hist, clock, sampler, monitor = _monitored_sampler(
            [SloRule.parse(self.RULE, name="lat-p99")]
        )
        self._tick(hist, clock, sampler, 5.0)
        self._tick(hist, clock, sampler, 0.5)  # healthy: timer resets
        self._tick(hist, clock, sampler, 5.0)
        self._tick(hist, clock, sampler, 5.0)
        assert monitor.firing == []  # only 1s of continuous breach again
        self._tick(hist, clock, sampler, 5.0)
        assert monitor.firing == ["lat-p99"]

    def test_resolves_and_logs_deterministically(self):
        def run():
            hist, clock, sampler, monitor = _monitored_sampler(
                [SloRule.parse(self.RULE, name="lat-p99")]
            )
            for value in (5.0, 5.0, 5.0, 5.0, 0.1, 5.0):
                self._tick(hist, clock, sampler, value)
            return monitor

        monitor = run()
        states = [(a.rule, a.state, a.at) for a in monitor.alerts]
        assert states == [
            ("lat-p99", "firing", 3.0),
            ("lat-p99", "resolved", 5.0),
        ]
        assert monitor.fired_count() == 1
        assert "lat-p99: ok (fired 1x)" in monitor.summary()
        assert monitor.alert_log_bytes() == run().alert_log_bytes()

    def test_no_data_is_neither_healthy_nor_breaching(self):
        __, clock, sampler, monitor = _monitored_sampler(
            [SloRule.parse("lat p99 < 2.0", name="lat-p99")]
        )
        clock.advance(1.0)
        sampler.sample()  # silent histogram: no p99 series point
        assert monitor.alerts == []
        assert monitor.firing == []

    def test_duplicate_rule_names_rejected(self):
        reg = MetricsRegistry()
        sampler = Sampler(reg, ManualClock())
        with pytest.raises(ConfigurationError):
            SloMonitor(sampler, [
                SloRule.parse("a value < 1", name="dup"),
                SloRule.parse("b value < 1", name="dup"),
            ])


class TestEndToEndDeterminism:
    """Same seed => byte-identical sampled series and alert logs (the
    chaos storm runs a real sampler + monitor under fault injection)."""

    CONFIG = dict(seed=11, dpu_count=3, replication=2, ops=48, preload=12)

    def test_chaos_series_and_alert_log_bytes_stable(self):
        first = run_chaos(**self.CONFIG)
        second = run_chaos(**self.CONFIG)
        assert first.samples > 0
        assert first.series == second.series
        assert first.slo_alert_log == second.slo_alert_log
        assert first.slo_alerts_fired == second.slo_alerts_fired
        assert first.slo_summary == second.slo_summary

    def test_different_seed_moves_the_series(self):
        first = run_chaos(**self.CONFIG)
        other = run_chaos(**{**self.CONFIG, "seed": 12})
        assert first.series != other.series
