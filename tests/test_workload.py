"""Tests for the traffic plane: Zipf key popularity, workload specs and
arrival curves, the open/closed-loop generators' determinism contract,
the SLO-driven autoscaler's hysteresis, and the hook surfaces it rides
on (``ShardMigrator.on_migration``, ``SloMonitor.on_alert``)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.hw.net import Network
from repro.sharding import ShardedKvClient, ShardedKvCluster, ShardMigrator
from repro.sim import Simulator
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import SloMonitor, SloRule
from repro.telemetry.timeseries import Sampler
from repro.transport import RpcError
from repro.workload import (
    Autoscaler,
    AutoscalerPolicy,
    BurstCurve,
    DiurnalCurve,
    OpenLoopTraffic,
    OpMix,
    StepCurve,
    TenantSpec,
    WorkloadSpec,
    ZipfKeys,
    arrival_preview,
)
from repro.workload.generator import _draw_op
from repro.common.units import parse_quantity
from repro.workload.spec import SteadyCurve

from tests.manual_clock import ManualClock


# ---------------------------------------------------------------------------
# Zipf popularity
# ---------------------------------------------------------------------------


def test_zipf_keys_are_bytes_in_rank_order():
    keys = ZipfKeys(32, skew=1.0)
    assert keys.key(0) == b"key-00000"
    assert keys.keys() == [f"key-{i:05d}".encode() for i in range(32)]
    assert keys.span(30, 4) == [
        b"key-00030", b"key-00031", b"key-00000", b"key-00001",
    ]


def test_zipf_hot_mass_grows_with_skew():
    # skew=0 is uniform: the top-8 of 128 carry exactly 8/128 of the
    # mass; each extra unit of skew concentrates strictly more load
    # onto the head.
    uniform = ZipfKeys(128, skew=0.0)
    assert uniform.hot_mass(8) == pytest.approx(8 / 128)
    masses = [ZipfKeys(128, skew=s).hot_mass(8) for s in (0.0, 0.5, 1.0, 1.5)]
    assert masses == sorted(masses)
    assert 0.4 < masses[2] < 0.6  # the documented skew-1.0 sanity band
    assert masses[3] > 0.75


def test_zipf_hot_mass_edges_and_validation():
    keys = ZipfKeys(16)
    assert keys.hot_mass(0) == 0.0
    assert keys.hot_mass(16) == 1.0
    assert keys.hot_mass(99) == 1.0
    with pytest.raises(ConfigurationError):
        ZipfKeys(0)
    with pytest.raises(ConfigurationError):
        ZipfKeys(8, skew=-0.1)


def test_zipf_draws_match_weights_roughly():
    keys = ZipfKeys(128, skew=1.0)
    rng = random.Random("test/zipf-mass")
    draws = [keys.pick_index(rng) for _ in range(4000)]
    observed_hot = sum(1 for d in draws if d < 8) / len(draws)
    assert observed_hot == pytest.approx(keys.hot_mass(8), abs=0.05)


# ---------------------------------------------------------------------------
# specs, mixes, curves
# ---------------------------------------------------------------------------


def test_parse_quantity_suffixes():
    assert parse_quantity("2ms") == pytest.approx(2e-3)
    assert parse_quantity("150us") == pytest.approx(1.5e-4)
    assert parse_quantity("3s") == 3.0
    assert parse_quantity("0.25") == 0.25
    with pytest.raises(ConfigurationError):
        parse_quantity("fast")


def test_op_mix_fractions_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        OpMix(get=0.5, put=0.4)
    with pytest.raises(ConfigurationError):
        OpMix(get=1.2, put=-0.2)
    mix = OpMix(get=0.78, put=0.22)
    assert mix.describe() == "get=0.78,put=0.22"


def test_op_mix_pick_covers_exactly_the_nonzero_kinds():
    mix = OpMix(scan=0.7, analytics=0.3)
    rng = random.Random("test/mix")
    kinds = {mix.pick(rng) for _ in range(200)}
    assert kinds == {"scan", "analytics"}


def test_diurnal_curve_shape():
    curve = DiurnalCurve(trough=1000, peak=5000, period=0.2)
    assert curve.rate(0.0) == pytest.approx(1000)
    assert curve.rate(0.1) == pytest.approx(5000)  # midday
    assert curve.rate(0.2) == pytest.approx(1000)  # next midnight
    assert curve.peak_rate == 5000
    shifted = DiurnalCurve(trough=1000, peak=5000, period=0.2, phase=0.25)
    assert shifted.rate(0.15) == pytest.approx(5000)


def test_burst_and_step_curves():
    burst = BurstCurve(base=100, burst=900, at=0.05, duration=0.01)
    assert burst.rate(0.049) == 100
    assert burst.rate(0.05) == 900
    assert burst.rate(0.0599) == 900
    assert burst.rate(0.061) == 100
    assert burst.peak_rate == 900
    step = StepCurve(steps=((0.0, 200.0), (0.1, 800.0), (0.2, 400.0)))
    assert step.rate(0.05) == 200
    assert step.rate(0.15) == 800
    assert step.rate(0.95) == 400
    assert step.peak_rate == 800


def test_curve_validation():
    with pytest.raises(ConfigurationError):
        DiurnalCurve(trough=0, peak=100, period=1.0)
    with pytest.raises(ConfigurationError):
        DiurnalCurve(trough=200, peak=100, period=1.0)
    with pytest.raises(ConfigurationError):
        BurstCurve(base=100, burst=50, at=0.0, duration=0.1)
    with pytest.raises(ConfigurationError):
        StepCurve(steps=((0.1, 100.0),))  # must start at t=0
    with pytest.raises(ConfigurationError):
        SteadyCurve(steady=0)


SPEC_TEXT = """
# the demo scenario from docs/WORKLOADS.md
keys 64
zipf 1.2
tenant web   mix get=0.78,put=0.22 curve diurnal trough=4000 peak=28000 period=240ms
tenant batch mix scan=0.7,analytics=0.3 curve steady rate=800 scan_span=8
"""


def test_workload_spec_parse():
    spec = WorkloadSpec.parse(SPEC_TEXT)
    assert spec.key_count == 64
    assert spec.zipf_skew == 1.2
    web, batch = spec.tenants
    assert web.name == "web" and web.mix.put == 0.22
    assert isinstance(web.curve, DiurnalCurve)
    assert web.curve.period == pytest.approx(0.240)
    assert batch.scan_span == 8
    assert sum(t.curve.peak_rate for t in spec.tenants) == pytest.approx(28800)
    assert sum(t.curve.rate(0.120) for t in spec.tenants) == pytest.approx(28800)


def test_workload_spec_describe_reparses_identically():
    spec = WorkloadSpec.parse(SPEC_TEXT)
    echoed = WorkloadSpec.parse(spec.describe())
    assert echoed.key_count == spec.key_count
    assert echoed.zipf_skew == spec.zipf_skew
    assert [t.name for t in echoed.tenants] == ["web", "batch"]
    assert echoed.tenants[0].curve == spec.tenants[0].curve
    assert echoed.tenants[0].mix == spec.tenants[0].mix


def test_workload_spec_parse_errors():
    with pytest.raises(ConfigurationError):
        WorkloadSpec.parse("bogus 12")
    with pytest.raises(ConfigurationError):
        WorkloadSpec.parse("tenant a mix fly=1.0 curve steady rate=10")
    with pytest.raises(ConfigurationError):
        WorkloadSpec.parse("tenant a mix get=1.0 curve sinusoid rate=10")
    with pytest.raises(ConfigurationError):
        WorkloadSpec.parse(
            "tenant a mix get=1.0 curve steady rate=10\n"
            "tenant a mix get=1.0 curve steady rate=20"
        )
    with pytest.raises(ConfigurationError):
        WorkloadSpec.parse("")  # no tenants


# ---------------------------------------------------------------------------
# generators: determinism and accounting
# ---------------------------------------------------------------------------

RUN_SPEC = WorkloadSpec.parse(
    """
    keys 64
    zipf 1.0
    tenant web   mix get=0.8,put=0.2 curve steady rate=2000
    tenant batch mix scan=1.0 curve steady rate=200 scan_span=4
    """
)


def _drive(seed, dpus, horizon=0.05):
    sim = Simulator()
    network = Network(sim)
    cluster = ShardedKvCluster(sim, network, dpu_count=dpus)
    clients = {
        tenant.name: ShardedKvClient(sim, cluster, name=f"t-{tenant.name}")
        for tenant in RUN_SPEC.tenants
    }
    traffic = OpenLoopTraffic(sim, RUN_SPEC, clients, seed, horizon)
    traffic.start()
    sim.run(until=horizon + 0.02)
    return traffic


def _arrival_stream(traffic):
    """(started, tenant, kind, op-count) in arrival order — the part of
    an outcome that must be a pure function of the seed."""
    return sorted((s, t, k, n) for s, _, _, n, t, k in traffic.outcomes)


def test_open_loop_stream_is_independent_of_fleet_size():
    # Same seed, different cluster shapes: latencies differ, but the
    # arrival times and drawn operations must be identical — cluster
    # behaviour cannot perturb the offered stream.
    small = _drive(seed=11, dpus=2)
    large = _drive(seed=11, dpus=4)
    assert small.offered == large.offered > 0
    assert _arrival_stream(small) == _arrival_stream(large)
    assert _drive(seed=12, dpus=2).offered != small.offered or \
        _arrival_stream(_drive(seed=12, dpus=2)) != _arrival_stream(small)


class _RecordingClient:
    """A tenant's client that logs every op it is handed and takes a
    fixed simulated time to serve it, so ops and arrivals interleave."""

    def __init__(self, sim, name, log):
        self.sim, self.name, self.log = sim, name, log

    def _serve(self, kind, keys):
        self.log.append((self.sim.now, self.name, kind, tuple(keys)))
        yield self.sim.timeout(1e-4)

    def get(self, key):
        return self._serve("get", [key])

    def put(self, key, value):
        return self._serve("put", [key])

    def get_many(self, keys):
        return self._serve("get_many", keys)


FOLD_SPECS = [
    RUN_SPEC,
    WorkloadSpec.parse(
        """
        keys 64
        zipf 1.2
        tenant web   mix get=0.78,put=0.22 curve diurnal trough=4000 peak=28000 period=40ms
        tenant batch mix scan=0.7,analytics=0.3 curve steady rate=800 scan_span=8
        """
    ),
    WorkloadSpec.parse(
        """
        keys 128
        tenant api mix get=0.6,put=0.4 curve burst base=1500 burst=12000 at=10ms dur=15ms
        tenant etl mix analytics=1.0 curve step 0=300,20ms=3000 analytics_span=6
        """
    ),
]


def _fold_run(traffic_class, spec, seed, horizon=0.04):
    sim = Simulator()
    log = []
    clients = {tenant.name: _RecordingClient(sim, tenant.name, log)
               for tenant in spec.tenants}
    sim.run(until=0.003)  # curve time 0 is not simulated time 0
    traffic = traffic_class(sim, spec, clients, seed, 0.003 + horizon)
    traffic.start()
    sim.run(until=0.003 + horizon / 2)
    offered_midway = traffic.offered
    sim.run()
    return log, traffic.outcomes, offered_midway, traffic.offered, sim.now


@pytest.mark.parametrize("seed", [1, 11, 17])
@pytest.mark.parametrize("spec", range(len(FOLD_SPECS)))
def test_folded_arrivals_match_the_chain_of_timeouts(spec, seed):
    """Folding the thinned candidates' gaps into one sleep per kept
    arrival keeps every kept instant, every op draw and the offered
    count bit-identical to one timeout per candidate
    (``tests/traffic_reference.py``)."""
    from tests.traffic_reference import ChainedOpenLoopTraffic

    folded = _fold_run(OpenLoopTraffic, FOLD_SPECS[spec], seed)
    chained = _fold_run(ChainedOpenLoopTraffic, FOLD_SPECS[spec], seed)
    assert folded == chained
    assert folded[3] > 20 and {entry[1] for entry in folded[0]} == {
        tenant.name for tenant in FOLD_SPECS[spec].tenants}


def test_open_loop_accounting_consistent():
    traffic = _drive(seed=3, dpus=3)
    assert traffic.offered == len(traffic.outcomes)
    assert traffic.served + traffic.failed == traffic.offered
    assert traffic.failed == 0  # unloaded fleet: nothing sheds
    assert traffic.good <= traffic.served
    assert len(traffic.latencies()) == traffic.served
    assert all(lat >= 0 for lat in traffic.latencies())


def test_open_loop_op_failure_raises_out_of_the_run():
    """An op that raises anything but an RPC error is a bug in the
    client, not a failed request: it surfaces from ``sim.run()`` instead
    of leaving ``inflight`` stuck and ``offered != served + failed``."""

    class Broken:
        def get(self, key):
            raise ValueError(f"broken client: {key!r}")
            yield  # a generator, like a real client's get

    spec = WorkloadSpec.parse("keys 8\ntenant web mix get=1.0 curve steady rate=1000")
    sim = Simulator()
    traffic = OpenLoopTraffic(sim, spec, {"web": Broken()}, 1, 0.05)
    traffic.start()
    with pytest.raises(ValueError, match="broken client"):
        sim.run(until=0.06)
    assert traffic.offered == 1 and traffic.served + traffic.failed == 0


def test_open_loop_requires_a_client_per_tenant():
    sim = Simulator()
    network = Network(sim)
    cluster = ShardedKvCluster(sim, network, dpu_count=2)
    with pytest.raises(ValueError, match="batch"):
        OpenLoopTraffic(sim, RUN_SPEC, {"web": object()}, 1, 0.1)


def test_put_keys_are_uniform_while_reads_stay_zipfian():
    # Reads follow the Zipf head; puts spread uniformly so no single
    # DPU's WAL becomes an unsplittable hot shard (generator docstring).
    zipf = ZipfKeys(128, skew=1.0)
    tenant = TenantSpec(name="t", mix=OpMix(get=0.5, put=0.5),
                        curve=SteadyCurve(steady=100))
    rng = random.Random("test/uniform-puts")
    hot = zipf.key(0)
    hits = {"get": 0, "put": 0, "get_n": 0, "put_n": 0}
    for _ in range(6000):
        kind, keys = _draw_op(zipf, tenant, rng)
        hits[f"{kind}_n"] += 1
        hits[kind] += keys[0] == hot
    get_hot = hits["get"] / hits["get_n"]
    put_hot = hits["put"] / hits["put_n"]
    assert get_hot == pytest.approx(zipf.hot_mass(1), abs=0.03)
    assert put_hot == pytest.approx(1 / 128, abs=0.01)


def test_arrival_preview_replays_the_generator_stream():
    lines = list(arrival_preview(RUN_SPEC, seed=11, limit=40))
    assert len(lines) == 40
    assert all(line.startswith("t=") for line in lines)
    # Merged stream is time-ordered.
    times = [float(line.split("ms", 1)[0][2:]) for line in lines]
    assert times == sorted(times)
    # Pure function of the seed.
    assert lines == list(arrival_preview(RUN_SPEC, seed=11, limit=40))
    assert lines != list(arrival_preview(RUN_SPEC, seed=12, limit=40))


def test_preview_cli_is_byte_identical_across_hash_seeds():
    # The workload CLI prints the spec echo and the arrival/key stream;
    # both must be byte-identical across PYTHONHASHSEED (same contract
    # the E20 report diff in CI enforces end to end).
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro.workload",
             "--seed", "5", "--limit", "16"],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "tenant web" in outputs[0]


# ---------------------------------------------------------------------------
# autoscaler: policy + hysteresis
# ---------------------------------------------------------------------------


class _StubSampler:
    def __init__(self):
        self.on_sample = []


class _StubMonitor:
    """Feeds the Autoscaler a test-controlled ``firing`` set."""

    def __init__(self):
        self.sampler = _StubSampler()
        self.on_alert = []
        self.firing = []


def _scaler(dpus=3, **policy):
    sim = Simulator()
    network = Network(sim)
    cluster = ShardedKvCluster(sim, network, dpu_count=dpus)
    migrator = ShardMigrator(sim, cluster, segment_keys=8)
    monitor = _StubMonitor()
    scaler = Autoscaler(
        sim, monitor, migrator,
        AutoscalerPolicy(min_dpus=2, max_dpus=4, cooldown=0.01, **policy),
    )
    return sim, monitor, scaler


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        AutoscalerPolicy(min_dpus=0)
    with pytest.raises(ConfigurationError):
        AutoscalerPolicy(min_dpus=4, max_dpus=2)
    with pytest.raises(ConfigurationError):
        AutoscalerPolicy(breach_rule="same", idle_rule="same")
    with pytest.raises(ConfigurationError):
        AutoscalerPolicy(cooldown=-1.0)


def test_fleet_must_start_at_or_above_min():
    sim = Simulator()
    network = Network(sim)
    cluster = ShardedKvCluster(sim, network, dpu_count=1)
    migrator = ShardMigrator(sim, cluster)
    with pytest.raises(ConfigurationError):
        Autoscaler(sim, _StubMonitor(), migrator, AutoscalerPolicy(min_dpus=2))


def test_breach_firing_scales_out_once_per_migration():
    sim, monitor, scaler = _scaler(dpus=3)
    monitor.firing = ["p99-breach"]
    scaler.check(sim.now)
    assert scaler.busy  # decision made, migration in flight
    scaler.check(sim.now)  # busy latch: no double-launch
    sim.run(until=0.2)
    assert scaler.fleet == 4
    assert scaler.scale_outs == 1
    decisions = [e for e in scaler.events if "decide" in e]
    assert decisions == [f"autoscale decide scale-out at={0.0!r} fleet=3"]


def test_failed_migration_is_logged_and_keeps_the_scaler_latched():
    sim, monitor, scaler = _scaler(dpus=3)
    loader = ShardedKvClient(sim, scaler.cluster, name="loader")
    sim.run_process(loader.put_many(
        [(f"k{i:02d}".encode(), b"v") for i in range(32)]))

    def refused(source, dest, keys):
        raise RpcError("overload: dropped (deadline)")
        yield  # a process, like the handoff it replaces

    scaler.migrator._handoff = refused
    monitor.firing = ["p99-breach"]
    decided_at = sim.now
    scaler.check(decided_at)
    sim.run(until=decided_at + 0.2)
    assert scaler.events[0].startswith("autoscale decide scale-out")
    assert scaler.events[1].startswith("autoscale scale-out failed at=")
    assert scaler.events[1].endswith("error=overload: dropped (deadline)")
    # The half-committed join is not retried: no second decision.
    assert scaler.busy and scaler.scale_outs == 0 and scaler.fleet == 3
    scaler.check(sim.now)
    assert len(scaler.events) == 2


def test_scale_out_clamped_at_max_dpus():
    sim, monitor, scaler = _scaler(dpus=4)  # already at max
    monitor.firing = ["p99-breach"]
    scaler.check(sim.now)
    assert not scaler.busy
    assert scaler.events == []


def test_drain_clamped_at_min_dpus():
    sim, monitor, scaler = _scaler(dpus=2)  # already at min
    monitor.firing = ["fleet-idle"]
    scaler.check(sim.now)
    assert not scaler.busy
    assert scaler.fleet == 2


def test_drain_vetoed_while_breach_fires():
    # Both objectives violated at once (a breach during low offered
    # load, e.g. mid-migration): capacity wins, the drain never runs.
    sim, monitor, scaler = _scaler(dpus=4)  # at max: breach can't act
    monitor.firing = ["fleet-idle", "p99-breach"]
    scaler.check(sim.now)
    assert not scaler.busy
    assert scaler.drains == 0


def test_cooldown_defers_the_next_action():
    sim, monitor, scaler = _scaler(dpus=3)
    monitor.firing = ["p99-breach"]
    scaler.check(sim.now)
    sim.run(until=0.2)  # migration completes, cooldown clock starts
    assert scaler.fleet == 4
    finished = float(scaler.events[-1].rsplit("at=", 1)[1].split()[0])
    # Recovery flips straight to idle: within the cooldown the drain
    # must NOT launch (no scale-out/drain flapping across the
    # breach/recover boundary)...
    monitor.firing = ["fleet-idle"]
    scaler.check(finished + 0.005)
    assert not scaler.busy
    assert scaler.drains == 0
    # ...but after the dwell it does.
    scaler.check(finished + 0.011)
    assert scaler.busy
    sim.run(until=sim.now + 0.2)
    assert scaler.fleet == 3
    assert scaler.drains == 1


def test_drain_removes_the_newest_member():
    sim, monitor, scaler = _scaler(dpus=3)
    members_before = list(scaler.cluster.members())
    monitor.firing = ["fleet-idle"]
    scaler.check(sim.now)
    sim.run(until=0.2)
    assert scaler.cluster.members() == members_before[:-1]


def test_dpu_seconds_integrates_fleet_over_time():
    sim, monitor, scaler = _scaler(dpus=3)
    sim.run(until=0.1)
    assert scaler.dpu_seconds() == pytest.approx(3 * 0.1)
    monitor.firing = ["p99-breach"]
    scaler.check(sim.now)
    sim.run(until=0.3)
    # 3 DPUs until the migration completed, 4 after: strictly between
    # the static-3 and static-4 integrals.
    assert 3 * 0.3 < scaler.dpu_seconds() < 4 * 0.3


def test_event_log_bytes_is_canonical():
    sim, monitor, scaler = _scaler(dpus=3)
    monitor.firing = ["p99-breach"]
    scaler.check(sim.now)
    sim.run(until=0.2)
    log = scaler.event_log_bytes()
    assert isinstance(log, bytes)
    assert log.startswith(b"autoscale decide scale-out")
    assert b"autoscale scale-out done node=" in log


# ---------------------------------------------------------------------------
# hook surfaces: migrator completions, SLO alert fan-out
# ---------------------------------------------------------------------------


def test_migrator_on_migration_hook_receives_reports():
    sim = Simulator()
    network = Network(sim)
    cluster = ShardedKvCluster(sim, network, dpu_count=2)
    migrator = ShardMigrator(sim, cluster, segment_keys=8)
    reports = []
    migrator.on_migration.append(reports.append)
    added = sim.run_process(migrator.add_dpu())
    assert [r.node for r in reports] == [added.node]
    assert reports[0].keys_moved == added.keys_moved
    sim.run_process(migrator.remove_dpu(added.node))
    assert len(reports) == 2 and reports[1].node == added.node


def test_slo_monitor_on_alert_hook_sees_firing_and_resolved():
    reg = MetricsRegistry()
    clock = ManualClock()
    sampler = Sampler(reg, clock)
    sampler.watch("lat")
    monitor = SloMonitor(
        sampler, [SloRule.parse("lat p99 < 2.0 for 2s", name="lat-p99")]
    )
    seen = []
    monitor.on_alert.append(
        lambda alert: seen.append((alert.rule, alert.state))
    )
    hist = reg.histogram("lat")
    for _ in range(4):  # sustained violation -> firing
        hist.observe(5.0)
        clock.advance(1.0)
        sampler.sample()
    assert ("lat-p99", "firing") in seen
    for _ in range(2):  # recovery -> resolved
        hist.observe(0.5)
        clock.advance(1.0)
        sampler.sample()
    assert seen[-1] == ("lat-p99", "resolved")
    assert seen == [(a.rule, a.state) for a in monitor.alerts]
