"""Tests for the unified fault-injection subsystem (repro.faults).

Covers deterministic schedules from a seed, NVMe read errors recovered
by the backend retry policy, and replicated cluster reads surviving a
dead DPU — plus the substrate hooks (links, PCIe, NVMe) the plans drive.
"""

import math

import pytest

from repro.common.errors import ConfigurationError, DegradedError
from repro.dpu import FailoverKvClient, ReplicatedDpuKvCluster
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.hw.net import Frame, Link, Network
from repro.hw.nvme import Namespace, NvmeController
from repro.memory import NvmeBackend
from repro.sim import Simulator

from tests.capture import arrivals
from tests.manual_clock import ManualClock


class TestFaultPlan:
    def test_exactly_one_timing_mode_required(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("f", "c", FaultKind.FRAME_DROP)
        with pytest.raises(ConfigurationError):
            FaultSpec("f", "c", FaultKind.FRAME_DROP, at=1.0, probability=0.5)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("f", "c", FaultKind.FRAME_DROP, probability=0.0)
        with pytest.raises(ConfigurationError):
            FaultSpec("f", "c", FaultKind.FRAME_DROP, probability=1.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("f", "c", FaultKind.NODE_DOWN, window=(2.0, 1.0))

    @pytest.mark.parametrize("timing", [
        {"at": math.nan}, {"at": math.inf},
        {"window": (math.nan, 1.0)}, {"window": (0.0, math.nan)},
        {"probability": 0.5, "window": (-math.inf, 1.0)},
    ])
    def test_non_finite_instants_rejected(self, timing):
        with pytest.raises(ConfigurationError, match="^cut: .*finite"):
            FaultSpec("cut", "c", FaultKind.NODE_DOWN, **timing)

    def test_duplicate_names_rejected(self):
        plan = FaultPlan()
        plan.once("cut", "dpu-0", FaultKind.POWER_LOSS, at=1.0)
        with pytest.raises(ConfigurationError):
            plan.once("cut", "dpu-1", FaultKind.POWER_LOSS, at=2.0)

    def test_describe_is_stable(self):
        def build():
            plan = FaultPlan(seed=3)
            plan.once("a", "c1", FaultKind.READ_ERROR, at=1e-3)
            plan.probabilistic("b", "c2", FaultKind.FRAME_DROP, 0.5)
            return plan

        assert build().describe() == build().describe()

    def test_merge_is_order_independent(self):
        # Name-sorting the union makes a.merge(b) and b.merge(a) the
        # same schedule (up to the kept seed) — the property the
        # nemesis leans on when layering plans.
        def operands(seed):
            a = FaultPlan(seed=seed)
            a.once("b-power", "dpu-1", FaultKind.POWER_LOSS, at=1.0)
            a.windowed("d-down", "dpu-2", FaultKind.NODE_DOWN, 2.0, 3.0)
            b = FaultPlan(seed=seed)
            b.once("a-cut", "dpu-0", FaultKind.POWER_LOSS, at=0.5)
            b.probabilistic("c-drop", "uplink", FaultKind.FRAME_DROP, 0.5)
            return a, b

        a, b = operands(9)
        merged = a.merge(b)
        assert [spec.name for spec in merged.specs] == [
            "a-cut", "b-power", "c-drop", "d-down",
        ]
        a2, b2 = operands(9)
        assert merged.describe() == b2.merge(a2).describe()

    def test_merge_keeps_left_seed_and_rejects_duplicates(self):
        a = FaultPlan(seed=1)
        a.once("x", "c", FaultKind.POWER_LOSS, at=1.0)
        b = FaultPlan(seed=2)
        b.once("y", "c", FaultKind.POWER_LOSS, at=2.0)
        assert a.merge(b).seed == 1
        assert b.merge(a).seed == 2
        dup = FaultPlan(seed=3)
        dup.once("x", "other", FaultKind.POWER_LOSS, at=3.0)
        with pytest.raises(ConfigurationError):
            a.merge(dup)


def counter(sim, path):
    """The value of the registry counter at *path*."""
    return sim.telemetry.get(path).value


def consult_storm(seed):
    """Drive one plan through a scripted consult sequence; return the log."""
    plan = FaultPlan(seed=seed)
    plan.once("bad-read", "ssd.flash", FaultKind.READ_ERROR, at=5e-3)
    plan.probabilistic("lossy", "uplink", FaultKind.FRAME_DROP, 0.3,
                       max_fires=10)
    plan.windowed("outage", "kv-dpu-1", FaultKind.NODE_DOWN, 10e-3, 20e-3)
    clock = ManualClock()
    injector = FaultInjector(clock, plan)
    for _ in range(100):
        clock.advance(0.5e-3)
        injector.fires("uplink", FaultKind.FRAME_DROP)
        injector.fires("ssd.flash", FaultKind.READ_ERROR)
        injector.active("kv-dpu-1", FaultKind.NODE_DOWN)
    return injector


class TestDeterminism:
    def test_same_seed_byte_identical_schedule(self):
        assert consult_storm(7).schedule_bytes() == consult_storm(7).schedule_bytes()

    def test_different_seed_different_draws(self):
        assert consult_storm(7).schedule_bytes() != consult_storm(8).schedule_bytes()

    def test_unrelated_spec_does_not_perturb_draws(self):
        """Per-spec RNGs: adding a spec must not move another's fires."""
        def lossy_times(extra):
            plan = FaultPlan(seed=1)
            plan.probabilistic("lossy", "uplink", FaultKind.FRAME_DROP, 0.3)
            if extra:
                plan.probabilistic("noise", "other", FaultKind.FRAME_CORRUPT, 0.9)
            clock = ManualClock()
            injector = FaultInjector(clock, plan)
            for _ in range(50):
                clock.advance(1e-3)
                injector.fires("uplink", FaultKind.FRAME_DROP)
                if extra:
                    injector.fires("other", FaultKind.FRAME_CORRUPT)
            return [r.time for r in injector.log if r.name == "lossy"]

        assert lossy_times(extra=False) == lossy_times(extra=True)

    def test_once_fires_exactly_once(self):
        plan = FaultPlan()
        plan.once("cut", "dpu-0", FaultKind.POWER_LOSS, at=1.0)
        clock = ManualClock()
        injector = FaultInjector(clock, plan)
        assert not injector.fires("dpu-0", FaultKind.POWER_LOSS)  # before `at`
        clock.advance(2.0)
        assert injector.fires("dpu-0", FaultKind.POWER_LOSS)
        assert not injector.fires("dpu-0", FaultKind.POWER_LOSS)
        assert [record.name for record in injector.log] == ["cut"]
        assert not injector.pending("dpu-0", FaultKind.POWER_LOSS)

    def test_window_active_semantics(self):
        plan = FaultPlan()
        plan.windowed("outage", "dpu", FaultKind.NODE_DOWN, 1.0, 2.0)
        clock = ManualClock()
        injector = FaultInjector(clock, plan)
        assert not injector.active("dpu", FaultKind.NODE_DOWN)
        clock.advance(1.5)
        assert injector.active("dpu", FaultKind.NODE_DOWN)
        assert injector.active("dpu", FaultKind.NODE_DOWN)
        assert len(injector.log) == 1  # only the falling edge is logged
        clock.advance(1.0)
        assert not injector.active("dpu", FaultKind.NODE_DOWN)
        assert not injector.pending("dpu", FaultKind.NODE_DOWN)

    def test_max_fires_bounds_probabilistic_spec(self):
        plan = FaultPlan()
        plan.probabilistic("drops", "link", FaultKind.FRAME_DROP, 1.0,
                           max_fires=3)
        clock = ManualClock()
        injector = FaultInjector(clock, plan)
        fired = sum(
            injector.fires("link", FaultKind.FRAME_DROP) for _ in range(10)
        )
        assert fired == 3
        assert not injector.pending("link", FaultKind.FRAME_DROP)


class TestLinkFaults:
    def test_injected_drop_counted_in_stats(self):
        sim = Simulator()
        plan = FaultPlan()
        plan.probabilistic("drops", "uplink", FaultKind.FRAME_DROP, 1.0,
                           max_fires=1)
        link = Link(sim).attach_faults(FaultInjector(sim, plan), "uplink")
        arrivals(sim, link)

        def scenario():
            yield link.enqueue(Frame("a", "b", None, 100))
            yield link.enqueue(Frame("a", "b", None, 100))

        sim.run_process(scenario())
        assert counter(sim, "uplink.frames_sent") == 2
        assert counter(sim, "uplink.frames_dropped") == 1
        assert counter(sim, "uplink.frames_corrupted") == 0

    def test_corruption_discards_frame(self):
        sim = Simulator()
        plan = FaultPlan()
        plan.probabilistic("emi", "uplink", FaultKind.FRAME_CORRUPT, 1.0,
                           max_fires=1)
        link = Link(sim).attach_faults(FaultInjector(sim, plan), "uplink")
        seen = arrivals(sim, link)

        def scenario():
            yield link.enqueue(Frame("a", "b", None, 100))

        sim.run_process(scenario())
        assert counter(sim, "uplink.frames_corrupted") == 1
        assert seen == []

    def test_link_down_window_flaps(self):
        sim = Simulator()
        plan = FaultPlan()
        plan.windowed("flap", "uplink", FaultKind.LINK_DOWN, 0.0, 1e-3)
        link = Link(sim, propagation=0).attach_faults(
            FaultInjector(sim, plan), "uplink"
        )
        seen = arrivals(sim, link)

        def scenario():
            yield link.enqueue(Frame("a", "b", "lost", 100))
            yield sim.timeout(2e-3)  # window closes; link back up
            yield link.enqueue(Frame("a", "b", "ok", 100))

        sim.run_process(scenario())
        assert [payload for __, payload in seen] == ["ok"]
        assert counter(sim, "uplink.frames_dropped") == 1


def faulty_nvme(plan, blocks=64):
    sim = Simulator()
    controller = NvmeController(sim, "ssd")
    controller.add_namespace(Namespace(1, blocks))
    qp = controller.create_queue_pair()
    controller.attach_faults(FaultInjector(sim, plan))
    backend = NvmeBackend(controller, qp)
    return sim, backend


class TestNvmeReadRetry:
    def test_injected_read_error_is_retried(self):
        """One uncorrectable read surfaces as UNRECOVERED_READ_ERROR and the
        backend's FTL-style retry recovers the data transparently."""
        plan = FaultPlan(seed=2)
        plan.once("bad-read", "ssd.flash", FaultKind.READ_ERROR, at=0.0)
        sim, backend = faulty_nvme(plan)
        backend.write(0, b"survives the media error")

        def scenario():
            data = yield from backend.timed_read(0, 24)
            return data

        assert sim.run_process(scenario()) == b"survives the media error"
        assert counter(sim, "ssd.media_errors") == 1

    def test_persistent_errors_exhaust_retries(self):
        plan = FaultPlan(seed=2)
        plan.probabilistic("dead-media", "ssd.flash", FaultKind.READ_ERROR, 1.0)
        sim, backend = faulty_nvme(plan)
        backend.write(0, b"unreachable")

        def scenario():
            yield from backend.timed_read(0, 8)

        with pytest.raises(DegradedError, match="after 3 attempts"):
            sim.run_process(scenario())

    def test_command_timeout_aborts_after_watchdog(self):
        plan = FaultPlan(seed=2)
        plan.once("hung-cmd", "ssd", FaultKind.COMMAND_TIMEOUT, at=0.0)
        sim, backend = faulty_nvme(plan)
        backend.write(0, b"eventually")

        def scenario():
            data = yield from backend.timed_read(0, 10)
            return data, sim.now

        data, elapsed = sim.run_process(scenario())
        assert data == b"eventually"  # retried after the abort
        assert counter(sim, "ssd.commands_aborted") == 1
        assert elapsed >= 10e-3  # the watchdog latency was paid


class TestClusterFailover:
    def test_reads_survive_one_dead_dpu(self):
        """RF=2: with one DPU blackholed, every key keeps a live replica and
        reads keep succeeding via client-driven failover."""
        sim = Simulator()
        network = Network(sim)
        cluster = ReplicatedDpuKvCluster(
            sim, network, dpu_count=3, replication=2
        )
        client = FailoverKvClient(sim, network, "client", cluster)
        keys = [f"k{i}".encode() for i in range(12)]

        def scenario():
            for key in keys:
                yield from client.put(key, b"v" * 32)
            network.switch.blackhole("kv-dpu-1")
            values = []
            for key in keys:
                value = yield from client.get(key)
                values.append(value)
            return values

        values = sim.run_process(scenario())
        assert all(value == b"v" * 32 for value in values)
        assert client.failed_ops == 0
        # Some keys are headed by the dead DPU; those reads failed over.
        assert client.failovers >= 1
        assert "kv-dpu-1" in client.marked_down

    def test_marked_down_gauge_follows_the_health_map_both_ways(self):
        """Regression: the gauge went up on a failed call but never came
        back down, so a revived DPU was reported down forever."""
        sim = Simulator()
        network = Network(sim)
        cluster = ReplicatedDpuKvCluster(
            sim, network, dpu_count=3, replication=2
        )
        client = FailoverKvClient(sim, network, "client", cluster)
        gauge = sim.telemetry.gauge("dpu.failover.client.marked_down")
        keys = [f"k{i}".encode() for i in range(12)]

        def scenario():
            for key in keys:
                yield from client.put(key, b"v")
            network.switch.blackhole("kv-dpu-1")
            for key in keys:
                yield from client.get(key)  # some fail over to the tail
            after_kill = gauge.value
            network.switch.restore("kv-dpu-1")
            for key in keys:
                yield from client.put(key, b"v")  # every replica answers
            return after_kill

        assert sim.run_process(scenario()) == 1
        assert client.failovers >= 1
        assert gauge.value == 0
        assert client.marked_down == []

    def test_a_replica_answering_a_delete_is_marked_up(self):
        """Regression: put and get marked an answering replica up, but
        delete did not, so a revived replica that served a delete stayed
        demoted in read order."""
        sim = Simulator()
        network = Network(sim)
        cluster = ReplicatedDpuKvCluster(
            sim, network, dpu_count=3, replication=2
        )
        client = FailoverKvClient(sim, network, "client", cluster)
        key = next(
            k for k in (f"k{i}".encode() for i in range(256))
            if cluster.replicas_of(k)[0] == "kv-dpu-1"
        )

        def scenario():
            yield from client.put(key, b"v")
            network.switch.blackhole("kv-dpu-1")
            yield from client.get(key)  # fails over to the tail
            down = client.marked_down
            network.switch.restore("kv-dpu-1")
            acked = yield from client.delete(key)
            return down, acked

        assert sim.run_process(scenario()) == (["kv-dpu-1"], 2)
        assert client.marked_down == []

    def test_asymmetric_partition_write_lands_but_ack_is_lost(self):
        """One-directional partition: kv-dpu-0's uplink is down while
        client -> kv-dpu-0 still flows. Writes *land* at the head
        replica but their acks vanish, so the client must fail over —
        and must not count the op as lost."""
        sim = Simulator()
        network = Network(sim)
        cluster = ReplicatedDpuKvCluster(
            sim, network, dpu_count=3, replication=2
        )
        client = FailoverKvClient(sim, network, "client", cluster)
        key = next(
            k for k in (f"k{i}".encode() for i in range(256))
            if cluster.replicas_of(k)[0] == "kv-dpu-0"
        )
        plan = FaultPlan()
        plan.windowed("uplink-down", "net.link.kv-dpu-0.up",
                      FaultKind.LINK_DOWN, 0.0, 0.5)
        network.port("kv-dpu-0").route().attach_faults(
            FaultInjector(sim, plan), "net.link.kv-dpu-0.up")

        def scenario():
            yield from client.put(key, b"payload")
            value = yield from client.get(key)
            return value

        value = sim.run_process(scenario())
        # The op succeeded via the tail replica; nothing was lost.
        assert value == b"payload"
        assert client.failed_ops == 0
        assert client.failovers >= 1
        assert "kv-dpu-0" in client.marked_down
        # The request direction was never cut: the head replica applied
        # the write even though the client never saw its ack.
        head_value = sim.run_process(cluster.devices[0].get(key))
        assert head_value == b"payload"

        # Once the direction heals, the head acks again and is marked up.
        def after_heal():
            yield sim.timeout(0.5)
            acked = yield from client.put(key, b"again")
            return acked

        assert sim.run_process(after_heal()) == 2
        assert client.health["kv-dpu-0"] is True

    def test_replica_chain_is_consecutive(self):
        sim = Simulator()
        cluster = ReplicatedDpuKvCluster(
            sim, Network(sim), dpu_count=4, replication=3
        )
        chain = cluster.replicas_of(b"some-key")
        assert len(chain) == 3
        assert len(set(chain)) == 3
        start = cluster.addresses.index(chain[0])
        expected = [
            cluster.addresses[(start + i) % 4] for i in range(3)
        ]
        assert chain == expected
