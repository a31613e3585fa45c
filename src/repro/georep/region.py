"""Regions: a sharded cluster behind a gateway, plus log shipping.

A :class:`Region` is one failure domain: its own
:class:`~repro.hw.net.Network`, its own
:class:`~repro.sharding.ShardedKvCluster` (DPU addresses prefixed with
the region name so they stay globally unique on the WAN fabric), and a
**gateway** RPC server — the region's public face. The gateway accepts
``geo.put``/``geo.get``/``geo.delete`` from clients anywhere on the
fabric, appends writes to the region's :class:`~repro.georep.log.
ReplicationLog`, applies them to the local cluster, and — per the
configured :class:`~repro.georep.log.Consistency` — waits for peer acks
before answering.

One :class:`LogShipper` per peer pushes the log tail over the WAN
(``repl.ship``), guarded by a :class:`~repro.overload.CircuitBreaker` so
a partitioned peer costs one cheap refused call per interval instead of
a full RPC deadline. Shippers expose per-peer replication lag as
telemetry gauges (``lag_entries``, ``lag_seconds``) — the live RPO
exposure — and heartbeat when idle so follower staleness stays bounded
in the absence of writes.

:class:`GeoCluster` wires N regions into a full mesh and is the
entry point E17 and the tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.georep.log import Consistency, LogEntry, ReplicationLog
from repro.georep.wan import (
    DEFAULT_WAN_BANDWIDTH,
    DEFAULT_WAN_PROPAGATION,
    WanFabric,
)
from repro.hw.net import Network
from repro.overload import CircuitBreaker
from repro.sharding import ShardedKvClient, ShardedKvCluster
from repro.sim import TIMED_OUT, Event, Simulator
from repro.transport import RpcClient, RpcError, RpcServer, UdpSocket

__all__ = ["GeoCluster", "LogShipper", "Region", "WanSpec"]

#: Shipper cadence: how often an idle shipper polls for new log entries.
SHIP_INTERVAL = 1e-3
#: Idle shippers send an empty ship at least this often, so follower
#: staleness stays bounded even with no write traffic.
SHIP_HEARTBEAT = 5e-3
#: Wire timing for one ship over a default WAN RTT (~10 ms).
SHIP_TIMEOUT = 15e-3
SHIP_RETRIES = 1
SHIP_DEADLINE = 35e-3
#: Breaker tuning for every cross-region caller (shippers and
#: :class:`~repro.georep.GeoKvClient`): two failed calls open a peer's
#: circuit for 25 ms.
BREAKER_FAILURES = 2
BREAKER_RESET = 25e-3
#: Each region's sharded cluster: DPUs, and flash blocks per DPU.
REGION_DPUS = 2
REGION_SSD_BLOCKS = 4096


class LogShipper:
    """Ships one region's log to one peer, breaker-guarded.

    ``shipped`` is the peer's acknowledged high-water mark (entries
    ``[0, shipped)`` are known applied there). The gap to the log head
    is the replication lag; its oldest entry's age is the lag in
    seconds — both exported as gauges and both exactly the RPO exposure
    toward this peer if the origin region were lost right now.
    """

    def __init__(
        self,
        sim: Simulator,
        region: "Region",
        peer: str,
        peer_address: str,
    ):
        self.sim = sim
        self.region = region
        self.peer = peer
        self.peer_address = peer_address
        self.shipped = 0
        self.stopped = False
        self._last_ship = sim.now
        self.rpc = RpcClient(
            sim, UdpSocket(sim, region.network.endpoint(
                f"{region.name}-ship-{peer}"
            ))
        )
        self._metrics = sim.telemetry.unique_scope(
            f"georep.{region.name}.ship.{peer}"
        )
        self.breaker = CircuitBreaker(
            sim, self._metrics.scope("breaker"),
            failure_threshold=BREAKER_FAILURES, reset_timeout=BREAKER_RESET,
        )
        self._batches = self._metrics.counter("batches")
        self._entries = self._metrics.counter("entries")
        self._heartbeats = self._metrics.counter("heartbeats")
        self._failures = self._metrics.counter("failures")
        self._lag_entries = self._metrics.gauge("lag_entries")
        self._lag_seconds = self._metrics.gauge("lag_seconds")
        sim.spawn(self._run())

    # -- lag (the live RPO exposure toward this peer) -------------------------
    @property
    def lag_entries(self) -> int:
        return self.region.log.head - self.shipped

    @property
    def lag_seconds(self) -> float:
        if self.lag_entries <= 0:
            return 0.0
        return self.sim.now - self.region.log.entry(self.shipped).stamp

    def _update_lag(self) -> None:
        self._lag_entries.set(self.lag_entries)
        self._lag_seconds.set(self.lag_seconds)

    def stop(self) -> None:
        """Stop the shipping loop (lets a finished simulation drain)."""
        self.stopped = True

    # -- the shipping loop ----------------------------------------------------
    def _run(self):
        while not self.stopped:
            caught_up = self.region.log.head <= self.shipped
            if caught_up and self.sim.now - self._last_ship < SHIP_HEARTBEAT:
                # Idle: a new log entry wakes us, or the interval does.
                wake = Event(self.sim)
                self.region._ship_wakes.append(wake)
                self.sim.expire_later(SHIP_INTERVAL, wake)
                if (yield wake) is TIMED_OUT:
                    # Take the wake back, or an idle region collects one
                    # dead event per interval.
                    self.region._ship_wakes.remove(wake)
                self._update_lag()
                continue
            if not self.breaker.allow():
                self._update_lag()
                yield self.sim.timeout(SHIP_INTERVAL)
                continue
            entries = self.region.log.since(self.shipped)
            # Freshness the peer may claim after applying this batch: if
            # the batch drains the log we vouch for "now", otherwise only
            # through the last shipped entry's stamp.
            if self.shipped + len(entries) >= self.region.log.head:
                through = self.sim.now
            else:
                through = entries[-1].stamp
            size = 48 + sum(entry.wire_size for entry in entries)
            # The shipper loop is nobody's flow, but the entries it
            # carries are: run the ship on the first traced entry's
            # context so the WAN hop and the peer's apply join the
            # originating write's trace.
            tracer = self.sim.tracer
            context = None
            if tracer.enabled:
                for entry in entries:
                    if entry.trace is not None:
                        context = entry.trace
                        break
            try:
                ship = self._ship_once(entries, through, size)
                if context is not None:
                    acked = yield from tracer.drive(ship, context)
                else:
                    acked = yield from ship
            except RpcError:
                self.breaker.record_failure()
                self._failures.value += 1
                self._update_lag()
                yield self.sim.timeout(SHIP_INTERVAL)
                continue
            self.breaker.record_success()
            self._last_ship = self.sim.now
            if entries:
                self._batches.value += 1
                self._entries.value += len(entries)
            else:
                self._heartbeats.value += 1
            self.shipped = max(self.shipped, int(acked))
            self.region._on_peer_ack(self.peer, self.shipped)
            self._update_lag()

    def _ship_once(self, entries, through: float, size: int):
        """Process: one ``repl.ship`` round trip to the peer gateway."""
        tracer = self.sim.tracer
        span = tracer.span(
            "repl.ship", "georep",
            region=self.region.name, peer=self.peer, entries=len(entries),
        ) if tracer.enabled else None
        try:
            return (yield from self.rpc.call(
                self.peer_address, "repl.ship",
                self.region.name, tuple(entries), through,
                request_size=size, response_size=24,
                timeout=SHIP_TIMEOUT, retries=SHIP_RETRIES,
                deadline=SHIP_DEADLINE,
            ))
        finally:
            if span is not None:
                span.finish()


class Region:
    """One geographic failure domain on a :class:`WanFabric`.

    Args:
        sim: the simulator.
        fabric: the WAN fabric this region joins (the region creates and
            registers its own internal :class:`~repro.hw.net.Network`).
        name: region name; prefixes every internal address
            (``{name}-dpu-N``, gateway ``{name}-gw``).
        consistency: peer-ack mode writes wait for (see
            :class:`~repro.georep.log.Consistency`).

    The region's :class:`~repro.sharding.ShardedKvCluster` has
    :data:`REGION_DPUS` DPUs of :data:`REGION_SSD_BLOCKS` blocks each.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: WanFabric,
        name: str,
        consistency: Consistency = Consistency.ASYNC,
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.consistency = consistency
        self.network = fabric.add_region(name, Network(sim))
        self.cluster = ShardedKvCluster(
            sim, self.network, dpu_count=REGION_DPUS,
            ssd_blocks=REGION_SSD_BLOCKS, name=name,
        )
        self.store = ShardedKvClient(sim, self.cluster, name=f"{name}-gw")
        self.address = f"{name}-gw"
        self.server = RpcServer(
            sim, UdpSocket(sim, self.network.endpoint(self.address))
        )
        self.log: ReplicationLog
        self.peers: Dict[str, str] = {}
        self.shippers: Dict[str, LogShipper] = {}
        #: key -> (stamp, origin): the LWW version of the applied value.
        self.version: Dict[bytes, Tuple[float, str]] = {}
        #: peer -> freshness timestamp: we hold every write that peer
        #: originated up to this simulated time.
        self.fresh_through: Dict[str, float] = {}
        #: peer -> next sequence number we expect from it (dedup cursor).
        self.applied_from: Dict[str, int] = {}
        #: peer -> entries of *ours* it has acknowledged (high-water mark).
        self.peer_acked: Dict[str, int] = {}
        self._ack_waiters: Dict[int, List[Tuple[int, Event]]] = {}
        self._ship_wakes: List[Event] = []
        self._stamp_floor = -math.inf
        self._metrics = sim.telemetry.unique_scope(f"georep.{name}")
        self.log = ReplicationLog(self._metrics.scope("log"))
        self._puts = self._metrics.counter("puts")
        self._gets = self._metrics.counter("gets")
        self._deletes = self._metrics.counter("deletes")
        self._ships_received = self._metrics.counter("ships_received")
        self._entries_applied = self._metrics.counter("entries_applied")
        self._entries_stale = self._metrics.counter("entries_stale")
        self._staleness_gauge = self._metrics.gauge("staleness")
        self.server.register("geo.put", self._geo_write)
        self.server.register("geo.get", self._geo_get)
        self.server.register("geo.delete", self._geo_write)
        self.server.register("geo.ping", lambda: True)
        self.server.register("repl.ship", self._repl_ship)

    # -- peering --------------------------------------------------------------
    def add_peer(self, name: str, address: str) -> LogShipper:
        """Start replicating to the peer region at *address*."""
        if name == self.name or name in self.peers:
            raise ConfigurationError(f"bad peer {name!r} for {self.name!r}")
        self.peers[name] = address
        self.fresh_through[name] = self.sim.now
        self.applied_from[name] = 0
        self.peer_acked[name] = 0
        shipper = LogShipper(self.sim, self, name, address)
        self.shippers[name] = shipper
        self.fabric.refresh()
        return shipper

    def _acks_needed(self) -> int:
        if self.consistency is Consistency.SYNC:
            return len(self.peers)
        if self.consistency is Consistency.QUORUM:
            # Majority of all regions, counting the local apply as one.
            return (len(self.peers) + 1) // 2 + 1 - 1
        return 0

    def _on_peer_ack(self, peer: str, through: int) -> None:
        self.peer_acked[peer] = max(self.peer_acked[peer], through)
        # Entries every peer has acknowledged can never be shipped again
        # (every shipper cursor and dedup cursor is past them): reclaim
        # them so a long-lived region's log stays bounded.
        self.log.truncate_through(min(self.peer_acked.values()))
        for seq in sorted(self._ack_waiters):
            waiters = self._ack_waiters[seq]
            acked = sum(1 for mark in self.peer_acked.values() if mark > seq)
            remaining = []
            for needed, gate in waiters:
                if acked >= needed:
                    if not gate.triggered:
                        gate.succeed(None)
                else:
                    remaining.append((needed, gate))
            if remaining:
                self._ack_waiters[seq] = remaining
            else:
                del self._ack_waiters[seq]

    def _wake_shippers(self) -> None:
        wakes, self._ship_wakes = self._ship_wakes, []
        for gate in wakes:
            if not gate.triggered:
                gate.succeed(None)

    def _await_acks(self, seq: int):
        needed = self._acks_needed()
        if needed <= 0:
            return
        acked = sum(1 for mark in self.peer_acked.values() if mark > seq)
        if acked >= needed:
            return
        gate = Event(self.sim)
        self._ack_waiters.setdefault(seq, []).append((needed, gate))
        yield gate

    def _next_stamp(self) -> float:
        """A strictly increasing per-region write stamp.

        Two writes accepted at the same simulated instant would tie on
        ``(stamp, origin)`` and peers applying LWW would keep the first
        while this region's store keeps the last — silent divergence.
        Nudging the second stamp up one ulp keeps stamps unique per
        origin while staying within rounding error of simulated time.
        """
        stamp = self.sim.now
        if stamp <= self._stamp_floor:
            stamp = math.nextafter(self._stamp_floor, math.inf)
        self._stamp_floor = stamp
        return stamp

    # -- freshness ------------------------------------------------------------
    def staleness_of(self, origin: Optional[str]) -> float:
        """Age of this region's view of *origin*'s writes (0 for itself)."""
        if origin is None or origin == self.name:
            return 0.0
        if origin not in self.fresh_through:
            raise ConfigurationError(f"unknown origin region {origin!r}")
        return self.sim.now - self.fresh_through[origin]

    # -- the gateway surface --------------------------------------------------
    def _apply(self, key: bytes, value: Optional[bytes]):
        """Process: a put — a delete when *value* is None — on the
        region's own cluster."""
        if value is None:
            return self.store.delete(key)
        return self.store.put(key, value)

    def _geo_write(self, key: bytes, value: Optional[bytes] = None):
        """The one write path (``geo.put``, or ``geo.delete`` with no
        value): stamp, log, apply locally, then wait for the peer acks
        the consistency mode asks for. Returns the write's stamp."""
        key = bytes(key)
        if value is not None:
            value = bytes(value)
        op = "delete" if value is None else "put"
        tracer = self.sim.tracer
        if tracer.enabled:
            context = tracer.active_context
            span = tracer.span(f"geo.{op}", "georep", region=self.name)
        else:
            context = span = None
        try:
            stamp = self._next_stamp()
            entry = self.log.append(op, key, value, stamp, self.name,
                                    trace=context)
            self.version[key] = (stamp, self.name)
            self._wake_shippers()
            yield from self._apply(key, value)
            yield from self._await_acks(entry.seq)
            (self._deletes if value is None else self._puts).value += 1
        finally:
            if span is not None:
                span.finish()
        return stamp

    def _geo_get(self, key: bytes, origin: Optional[str] = None):
        """Serve a read plus this region's staleness w.r.t. *origin*.

        A follower read: the caller names the region whose writes it
        cares about (normally the current primary) and gets back how far
        behind this region might be on them — the number a
        staleness-bounded client checks before trusting the value.
        """
        tracer = self.sim.tracer
        span = tracer.span(
            "geo.get", "georep", region=self.name,
        ) if tracer.enabled else None
        try:
            value = yield from self.store.get(bytes(key))
            staleness = self.staleness_of(origin)
            self._staleness_gauge.value = staleness
            self._gets.value += 1
        finally:
            if span is not None:
                span.finish()
        return value, staleness

    def _repl_ship(self, origin: str, entries: Tuple[LogEntry, ...],
                   through: float):
        """Apply one shipped batch; returns the new per-origin cursor.

        Application is LWW on ``(stamp, origin)``, so re-shipped tails
        after a heal are safe: an entry older than the applied version
        (e.g. overwritten by a post-failover write at this region) is
        counted stale and skipped, never resurrecting old data.
        """
        if origin not in self.applied_from:
            raise ConfigurationError(f"unknown peer {origin!r}")
        tracer = self.sim.tracer
        span = tracer.span(
            "repl.apply", "georep",
            region=self.name, origin=origin, entries=len(entries),
        ) if tracer.enabled else None
        cursor = self.applied_from[origin]
        try:
            for entry in entries:
                if entry.seq < cursor:
                    continue  # duplicate delivery after a retransmit
                current = self.version.get(entry.key)
                if current is None or (entry.stamp, entry.origin) > current:
                    self.version[entry.key] = (entry.stamp, entry.origin)
                    yield from self._apply(entry.key, entry.value)
                    self._entries_applied.value += 1
                else:
                    self._entries_stale.value += 1
                cursor = entry.seq + 1
            self.applied_from[origin] = cursor
            self.fresh_through[origin] = max(self.fresh_through[origin],
                                             through)
            self._ships_received.value += 1
        finally:
            if span is not None:
                span.finish()
        return cursor


@dataclass(frozen=True)
class WanSpec:
    """One directional WAN path used by :class:`GeoCluster` wiring."""

    src: str
    dst: str
    propagation: float = DEFAULT_WAN_PROPAGATION
    bandwidth: float = DEFAULT_WAN_BANDWIDTH


class GeoCluster:
    """N regions, full-mesh WAN links, all-pairs log shipping.

    Args:
        sim: the simulator.
        names: region names, preference order preserved.
        wan: directional link specs; any pair not covered gets default
            symmetric links, so tests can spell out only the paths whose
            asymmetry matters.
        consistency: ack mode for every region's writes.
        injector: optional fault injector the WAN links consult (for
            :meth:`~repro.faults.FaultPlan.wan_partition` windows).
    """

    def __init__(
        self,
        sim: Simulator,
        names: Sequence[str],
        *,
        wan: Sequence[WanSpec] = (),
        consistency: Consistency = Consistency.ASYNC,
        injector=None,
    ):
        if len(names) < 2:
            raise ConfigurationError("a geo cluster needs >= 2 regions")
        self.fabric = WanFabric(sim, injector=injector)
        self.regions: Dict[str, Region] = {}
        for name in names:
            self.regions[name] = Region(sim, self.fabric, name, consistency)
        specified = {(spec.src, spec.dst) for spec in wan}
        for spec in wan:
            self.fabric.connect(spec.src, spec.dst,
                                bandwidth=spec.bandwidth,
                                propagation=spec.propagation)
        for src in names:
            for dst in names:
                if src != dst and (src, dst) not in specified:
                    self.fabric.connect(src, dst)
        for src in names:
            for dst in names:
                if src != dst:
                    self.regions[src].add_peer(dst, self.regions[dst].address)
        self.fabric.refresh()

    def region(self, name: str) -> Region:
        try:
            return self.regions[name]
        except KeyError:
            raise ConfigurationError(f"unknown region {name!r}") from None

    def stop(self) -> None:
        """Stop every shipper so the event heap can drain.

        The shippers' periodic polls otherwise keep the simulation alive
        forever; call this once the scenario is over, then let the
        simulator run the stragglers out (at most one interval each).
        """
        for region in self.regions.values():
            for shipper in region.shippers.values():
                shipper.stop()
