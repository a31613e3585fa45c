"""Tests for repro.georep: WAN fabric, log shipping, region failover."""

import types

import pytest

from repro.common.errors import ConfigurationError, DegradedError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.georep import (
    Consistency,
    GeoCluster,
    GeoKvClient,
    WanFabric,
    WanSpec,
    wan_component,
)
from repro.hw.net import Frame, Network
from repro.sim import Simulator
from repro.transport import UdpSocket

from tests.capture import sending


def drain(sim, cluster):
    """Stop the shippers and run the heap dry (post-scenario idiom)."""
    cluster.stop()
    sim.run()


def counter(sim, path):
    """The value of the registry counter at *path*."""
    return sim.telemetry.get(path).value


def region_loss(regions, names, start, end):
    """A plan cutting every WAN path touching each of *names* over
    ``[start, end)``: those regions are lost, then rejoin."""
    plan = FaultPlan()
    for src in regions:
        for dst in regions:
            if src != dst and (src in names or dst in names):
                plan.wan_partition(f"lose-{src}-{dst}", src, dst, start, end)
    return plan


def cut(sim, *paths):
    """An injector holding each ``(src, dst)`` WAN path cut for good."""
    plan = FaultPlan()
    for src, dst in paths:
        plan.wan_partition(f"cut-{src}-{dst}", src, dst, 0.0, float("inf"))
    return FaultInjector(sim, plan)


class TestWanFabric:
    def test_cross_region_delivery_pays_propagation(self):
        sim = Simulator()
        fabric = WanFabric(sim)
        fabric.add_region("a", Network(sim))
        fabric.add_region("b", Network(sim))
        fabric.connect("a", "b", bandwidth=10e9, propagation=2e-3)
        fabric.connect("b", "a", bandwidth=10e9, propagation=6e-3)
        sock_a = UdpSocket(sim, fabric.endpoint("a", "host-a"))
        sock_b = UdpSocket(sim, fabric.endpoint("b", "host-b"))
        stamps = {}

        def on_ping(datagram):
            stamps["a_to_b"] = sim.now
            sim.spawn(sending(sock_b.sendto, "host-a", b"pong", 64))

        sock_b.deliver = on_ping
        sock_a.deliver = lambda datagram: stamps.setdefault("rtt", sim.now)
        sim.run_process(sending(sock_a.sendto, "host-b", b"ping", 64))
        # The forward path pays its 2 ms; the return pays its 6 ms.
        assert 2e-3 < stamps["a_to_b"] < 3e-3
        assert 8e-3 < stamps["rtt"] < 10e-3

    def test_duplicate_address_across_regions_rejected(self):
        sim = Simulator()
        fabric = WanFabric(sim)
        fabric.add_region("a", Network(sim))
        fabric.add_region("b", Network(sim))
        fabric.connect("a", "b", bandwidth=10e9, propagation=1e-3)
        fabric.endpoint("a", "shared-name")
        with pytest.raises(ConfigurationError):
            fabric.endpoint("b", "shared-name")


class TestWanCrossing:
    """The WAN link rides the same callback datapath as rack links."""

    def _pair(self, sim, injector=None):
        fabric = WanFabric(sim, injector=injector)
        fabric.add_region("a", Network(sim))
        fabric.add_region("b", Network(sim))
        fabric.connect("a", "b", bandwidth=10e9, propagation=2e-3)
        fabric.connect("b", "a", bandwidth=10e9, propagation=2e-3)
        port_a = fabric.endpoint("a", "host-a")
        port_b = fabric.endpoint("b", "host-b")
        seen = []
        port_b.listen(lambda frame: seen.append((sim.now, frame.payload)))
        return fabric, port_a, seen

    def test_crossing_time_is_the_sum_of_its_stages(self):
        sim = Simulator()
        fabric, port_a, seen = self._pair(sim)
        sim.process(sending(port_a.send, Frame("host-a", "host-b", "x", 62)))
        sim.run()
        rack = fabric.regions["a"]
        ser, wan_ser = 100 / rack.bandwidth, 100 / 10e9
        fwd = rack.switch.forward_latency
        # uplink, a's switch, WAN link, b's switch, downlink.
        expected = ser + rack.propagation
        for delay in (fwd, wan_ser, 2e-3, fwd, ser, rack.propagation):
            expected += delay
        assert seen == [(expected, "x")]

    def test_partitioned_frame_is_counted_once_and_never_delivered(self):
        sim = Simulator()
        fabric, port_a, seen = self._pair(sim, cut(sim, ("a", "b")))
        assert not fabric.links[("b", "a")].partitioned  # one direction only
        sim.process(sending(port_a.send, Frame("host-a", "host-b", "lost", 62)))
        sim.run()
        assert seen == []
        assert [counter(sim, f"wan.a->b.{name}") for name in (
            "frames_sent", "frames_partitioned", "frames_dropped",
            "frames_corrupted")] == [1, 1, 1, 0]

    def test_plan_window_partitions_without_drawing_other_faults(self):
        sim = Simulator()
        plan = FaultPlan(seed=1)
        plan.wan_partition("cut", "a", "b", 0.0, 1e-3)
        plan.probabilistic("noise", wan_component("a", "b"),
                           FaultKind.FRAME_DROP, 1.0)
        injector = FaultInjector(sim, plan)
        __, port_a, seen = self._pair(sim, injector)
        sim.process(sending(port_a.send, Frame("host-a", "host-b", "lost", 62)))
        sim.run()
        assert seen == [] and counter(sim, "wan.a->b.frames_partitioned") == 1
        # The partition decided the frame's fate; FRAME_DROP never drew.
        assert [r.kind for r in injector.log] == [FaultKind.WAN_PARTITION]


class TestWanPartitionFaults:
    def test_plan_spec_addresses_one_direction(self):
        plan = FaultPlan(seed=3)
        spec = plan.wan_partition("cut", "a", "b", 1e-3, 2e-3)
        assert spec.kind is FaultKind.WAN_PARTITION
        assert spec.component == wan_component("a", "b") == "wan.a->b"
        assert spec.window == (1e-3, 2e-3)

    def test_windowed_partition_blocks_shipping_then_heals(self):
        sim = Simulator()
        plan = FaultPlan(seed=7)
        plan.wan_partition("cut-ab", "a", "b", 10e-3, 40e-3)
        plan.wan_partition("cut-ba", "b", "a", 10e-3, 40e-3)
        injector = FaultInjector(sim, plan)
        cluster = GeoCluster(sim, ("a", "b"), injector=injector)
        client = GeoKvClient(sim, cluster, "w", home="a")
        seen = {}

        def driver():
            yield from client.put(b"k1", b"v1")
            yield sim.timeout(8e-3)  # now ~9 ms: k1 replicated
            seen["k1_before"] = b"k1" in cluster.region("b").version
            yield sim.timeout(4e-3)  # now ~13 ms: inside the window
            yield from client.put(b"k2", b"v2")
            yield sim.timeout(20e-3)  # now ~33 ms: still inside
            seen["k2_during"] = b"k2" in cluster.region("b").version
            yield sim.timeout(60e-3)  # heal + breaker reset + reship
            seen["k2_after"] = b"k2" in cluster.region("b").version

        sim.process(driver())
        sim.run(until=0.2)
        drain(sim, cluster)
        assert seen == {"k1_before": True, "k2_during": False,
                        "k2_after": True}
        # The injector recorded the partition holding both directions.
        kinds = {record.component for record in injector.log}
        assert kinds == {"wan.a->b", "wan.b->a"}
        assert all(record.kind is FaultKind.WAN_PARTITION
                   for record in injector.log)

    def test_asymmetric_partition_orphans_the_ack(self):
        """Requests cross, responses vanish: the write lands at the
        primary but the client never hears it — so it replays to the
        next region, and LWW keeps replica stores convergent."""
        sim = Simulator()
        # Drop only a's outbound traffic to b: b->a still flows.
        cluster = GeoCluster(sim, ("a", "b"), injector=cut(sim, ("a", "b")))
        client = GeoKvClient(sim, cluster, "w", home="b")

        def driver():
            yield sim.timeout(1e-3)
            stamp, region = yield from client.put(b"k", b"v")
            return region

        sim.process(driver())
        sim.run(until=0.2)
        drain(sim, cluster)
        # The orphaned attempt was appended at a (requests arrive; with
        # retransmits the handler may run more than once)...
        assert cluster.region("a").log.head >= 1
        # ...but the ack was lost, so the client replayed at b.
        assert cluster.region("b").log.head == 1
        assert client.failovers == 1
        assert client.replayed_writes == 1
        assert client.current == "b"


class TestConsistencyModes:
    @staticmethod
    def _put_latency(mode):
        sim = Simulator()
        wan = (
            WanSpec("a", "b", propagation=2e-3),
            WanSpec("b", "a", propagation=2e-3),
            WanSpec("a", "c", propagation=8e-3),
            WanSpec("c", "a", propagation=8e-3),
        )
        cluster = GeoCluster(sim, ("a", "b", "c"), wan=wan,
                             consistency=mode)
        client = GeoKvClient(sim, cluster, "m", home="a")
        out = []

        def driver():
            yield sim.timeout(1e-3)
            started = sim.now
            yield from client.put(b"k", b"v")
            out.append(sim.now - started)

        sim.process(driver())
        sim.run(until=0.3)
        drain(sim, cluster)
        assert out
        return out[0]

    def test_ack_latency_orders_by_mode(self):
        latency = {mode: self._put_latency(mode) for mode in Consistency}
        # Async acks at local-WAL cost; quorum waits for the *near*
        # peer's round trip; sync pays the far peer's.
        assert latency[Consistency.ASYNC] < 2e-3
        assert latency[Consistency.ASYNC] < latency[Consistency.QUORUM]
        assert latency[Consistency.QUORUM] < latency[Consistency.SYNC]
        assert latency[Consistency.QUORUM] > 4e-3  # near RTT (2+2 ms)
        assert latency[Consistency.SYNC] > 16e-3  # far RTT (8+8 ms)

    def test_quorum_survives_one_partitioned_peer(self):
        sim = Simulator()
        cluster = GeoCluster(sim, ("a", "b", "c"),
                             consistency=Consistency.QUORUM,
                             injector=cut(sim, ("a", "c"), ("c", "a")))
        client = GeoKvClient(sim, cluster, "m", home="a")
        done = []

        def driver():
            yield sim.timeout(1e-3)
            yield from client.put(b"k", b"v")
            done.append(sim.now)

        sim.process(driver())
        sim.run(until=0.3)
        drain(sim, cluster)
        # Majority = self + b; the partitioned c is not needed.
        assert done and done[0] < 30e-3


class TestStaleReads:
    @staticmethod
    def _cluster(sim, bound):
        """A client whose every read may be served *bound*-stale."""
        cluster = GeoCluster(sim, ("a", "b"))
        ladder = types.SimpleNamespace(serve_stale=True)
        client = GeoKvClient(sim, cluster, "w", home="b", stale_bound=bound,
                             brownout=ladder)
        return cluster, client

    def test_bounded_read_serves_from_follower(self):
        sim = Simulator()
        cluster, client = self._cluster(sim, 1.0)
        got = []

        def driver():
            yield from client.put(b"k", b"fresh")
            yield sim.timeout(50e-3)  # replication + heartbeats settle
            value = yield from client.get(b"k")
            got.append(value)

        sim.process(driver())
        sim.run(until=0.2)
        drain(sim, cluster)
        assert got == [b"fresh"]
        assert client.stale_reads_served == 1
        assert client.max_staleness_served <= 1.0

    def test_too_stale_falls_back_to_primary(self):
        sim = Simulator()
        cluster, client = self._cluster(sim, 1e-12)
        got = []

        def driver():
            yield from client.put(b"k", b"fresh")
            yield sim.timeout(50e-3)
            # No follower is ever *zero*-stale w.r.t. a remote primary.
            value = yield from client.get(b"k")
            got.append(value)

        sim.process(driver())
        sim.run(until=0.2)
        drain(sim, cluster)
        assert got == [b"fresh"]
        assert client.stale_reads_served == 0
        assert client._stale_fallbacks.value >= 1

    def test_brownout_serve_stale_triggers_follower_reads(self):
        sim = Simulator()
        cluster = GeoCluster(sim, ("a", "b"))
        ladder = types.SimpleNamespace(serve_stale=True)
        client = GeoKvClient(sim, cluster, "w", home="b", brownout=ladder)
        got = []

        def driver():
            yield from client.put(b"k", b"v")
            yield sim.timeout(50e-3)
            value = yield from client.get(b"k")
            got.append(value)

        sim.process(driver())
        sim.run(until=0.2)
        drain(sim, cluster)
        assert got == [b"v"]
        assert client.stale_reads_served == 1


class TestDisasterRecovery:
    def test_zero_lost_acked_writes_through_region_loss(self):
        sim = Simulator()
        lost_at, rejoin_at = 0.15, 0.5
        plan = region_loss(("a", "b"), {"a"}, lost_at, rejoin_at)
        cluster = GeoCluster(sim, ("a", "b"),
                             injector=FaultInjector(sim, plan))
        client = GeoKvClient(sim, cluster, "w", home="b")
        keys = [f"k{i}".encode() for i in range(6)]
        acked = {}

        def driver():
            for index, key in enumerate(keys):
                value = b"pre-%d" % index
                stamp, region = yield from client.put(key, value)
                acked[key] = ((stamp, region), value)
            assert sim.now < lost_at - 20e-3  # replication caught up
            yield sim.timeout(lost_at - sim.now)
            for index, key in enumerate(keys):
                value = b"post-%d" % index
                stamp, region = yield from client.put(key, value)
                acked[key] = ((stamp, region), value)
            assert sim.now < rejoin_at

        sim.spawn(driver())  # a failed assert raises out of run()
        sim.run(until=rejoin_at + 100e-3)  # breaker reset + backlog reships
        drain(sim, cluster)
        assert client.failovers >= 1
        assert client.replayed_writes >= 0
        assert client.current == "b"
        for key in keys:
            expected = acked[key][1]
            got_a = sim.run_process(cluster.region("a").store.get(key))
            got_b = sim.run_process(cluster.region("b").store.get(key))
            # Every acked write survived, and the regions reconverged.
            assert got_b == expected
            assert got_a == got_b

    def test_failed_walk_raises_degraded(self):
        sim = Simulator()
        plan = region_loss(("a", "b"), {"a", "b"}, 0.0, 1.0)
        cluster = GeoCluster(sim, ("a", "b"),
                             injector=FaultInjector(sim, plan))
        client = GeoKvClient(sim, cluster, "w", home="a",
                             rounds=1, timeout=2e-3)
        # The client's home network still reaches its own gateway; cut
        # that too by blackholing the gateway address locally.
        cluster.region("a").network.switch.blackhole("a-gw")
        outcome = []

        def driver():
            yield sim.timeout(1e-3)
            try:
                yield from client.put(b"k", b"v")
            except DegradedError:
                outcome.append("degraded")

        sim.process(driver())
        sim.run(until=0.2)
        drain(sim, cluster)
        assert outcome == ["degraded"]


class TestLogTruncation:
    def test_log_reclaimed_once_every_peer_acked(self):
        # A long-lived region's log must stay bounded: entries every
        # peer has acknowledged past can never be shipped again, so the
        # region reclaims them on peer acks and counts the drops.
        sim = Simulator()
        cluster = GeoCluster(sim, ("a", "b", "c"))
        client = GeoKvClient(sim, cluster, "w", home="a")

        def driver():
            yield sim.timeout(1e-3)
            for index in range(20):
                yield from client.put(b"k%d" % (index % 5), b"v%d" % index)
                yield sim.timeout(0.5e-3)

        sim.process(driver())
        sim.run(until=0.3)
        drain(sim, cluster)
        log = cluster.region("a").log
        assert log.head >= 20
        # Everything shipped and acked by both peers: fully reclaimed.
        assert log.base == log.head
        assert log.entries == []
        assert log._truncated.value == log.head
        # The replicas still hold the data the reclaimed entries carried.
        for name in ("b", "c"):
            got = sim.run_process(cluster.region(name).store.get(b"k4"))
            assert got == b"v19"

    def test_reads_below_truncation_base_rejected(self):
        sim = Simulator()
        cluster = GeoCluster(sim, ("a", "b"))
        client = GeoKvClient(sim, cluster, "w", home="a")

        def driver():
            yield sim.timeout(1e-3)
            yield from client.put(b"k", b"v")

        sim.process(driver())
        sim.run(until=0.2)
        drain(sim, cluster)
        log = cluster.region("a").log
        assert log.base >= 1
        with pytest.raises(KeyError):
            log.entry(0)
        with pytest.raises(KeyError):
            log.since(0)

    def test_idle_region_keeps_no_dead_shipper_wakes(self):
        # A caught-up shipper polls every interval; a region that takes
        # no writes (a follower, a lost region) must not collect one
        # dead wake event per poll.
        sim = Simulator()
        cluster = GeoCluster(sim, ("a", "b"))
        sim.run(until=1.0)
        for region in cluster.regions.values():
            assert len(region._ship_wakes) <= len(region.peers)
        # A write still wakes the shipper ahead of its poll.
        client = GeoKvClient(sim, cluster, "w", home="a")
        put = sim.process(client.put(b"k", b"v"))
        sim.run(until=1.1)
        assert put.triggered and put.ok
        drain(sim, cluster)
        assert cluster.region("b").applied_from["a"] == 1


class TestDeterminism:
    def test_replication_telemetry_byte_identical(self):
        def run_once():
            sim = Simulator()
            cluster = GeoCluster(sim, ("a", "b"))
            client = GeoKvClient(sim, cluster, "w", home="b")

            def driver():
                for index in range(10):
                    yield from client.put(b"k%d" % (index % 3), b"v")
                    yield sim.timeout(1e-3)

            sim.process(driver())
            sim.run(until=0.1)
            drain(sim, cluster)
            return sim.telemetry.snapshot_bytes()

        assert run_once() == run_once()
