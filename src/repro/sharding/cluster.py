"""An elastic sharded KV cluster whose DPUs can forward mid-migration.

The cluster side of the scale-out data plane. Every DPU serves the usual
``kv.*`` surface, but through a :class:`ShardForwarder` — a thin routing
layer in front of the device that knows which of its keys have been
handed off to another DPU and transparently proxies those ops over the
simulated network. That forwarding stub is what turns a topology change
into a latency event: a client routing on a stale shard map still gets
an answer, it just pays one extra hop until it observes the new epoch.

Topology is a :class:`~repro.sharding.ring.HashRing` plus a monotonic
**epoch**. Clients cache the epoch; :class:`~repro.sharding.migration.
ShardMigrator` bumps it exactly once per completed migration, which
atomically (in simulated time) retargets routing *and* invalidates every
:class:`~repro.sharding.cache.HotKeyCache` entry filled under the old
map.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.overload.admission import Priority
from repro.overload.queues import QueuePolicy
from repro.sharding.ring import HashRing
from repro.sim import Event, Simulator
from repro.storage.kvssd import KV_ACK, KV_HEADER, KV_VALUE, KvSsd
from repro.telemetry.tracing import NULL_SPAN
from repro.transport import RpcClient, RpcServer, UdpSocket

__all__ = ["ShardedKvCluster", "ShardForwarder", "build_kv_dpu"]


def build_kv_dpu(sim: Simulator, network: Network, address: str,
                 ssd_blocks: int, **server_options):
    """Stand up one KV-SSD DPU at *address*: flash controller, namespace,
    :class:`~repro.storage.kvssd.KvSsd` and its :class:`RpcServer`.

    Returns ``(device, server)`` with no ``kv.*`` handlers registered:
    the caller decides what fronts the device (a :class:`ShardForwarder`
    here, a plain ``KvSsdService`` in :mod:`repro.dpu.cluster`).
    """
    controller = NvmeController(sim, f"{address}-flash")
    controller.add_namespace(Namespace(1, ssd_blocks))
    device = KvSsd(sim, controller, memtable_limit=100_000)
    server = RpcServer(
        sim, UdpSocket(sim, network.endpoint(address)), **server_options
    )
    return device, server


class _KeyLocks:
    """FIFO per-key mutexes serializing device access on one DPU.

    A handoff must not copy a key while a client op is mid-flight
    against it (the op's device write would land *after* the copy and be
    lost), and a client op must not read a key mid-copy. Both sides take
    the key's lock around their device/forward work; waiters resume in
    arrival order, so contention is deterministic.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: key -> waiter queue; presence in the dict means "locked".
        self._locks: Dict[bytes, Deque[Event]] = {}

    def acquire(self, key: bytes) -> Optional[Event]:
        """Take a free lock and return ``None`` (no generator, no entry),
        or queue and return the gate to ``yield``: it fires with the lock."""
        waiters = self._locks.get(key)
        if waiters is None:
            self._locks[key] = deque()
            return None
        gate = Event(self.sim)
        waiters.append(gate)
        return gate

    def release(self, key: bytes) -> None:
        """Hand the lock to the next waiter, or free it."""
        waiters = self._locks[key]
        if waiters:
            waiters.popleft().succeed()
        else:
            del self._locks[key]


class ShardForwarder:
    """The per-DPU forwarding stub: local service + handoff + proxying.

    Registers the ``kv.get/put/delete/ping`` surface plus the two
    migration verbs (``shard.keys``, ``shard.handoff``) on the DPU's RPC
    server. Ops for keys this DPU handed off are proxied to the new
    owner over the DPU's own egress socket; ops for keys *mid-handoff*
    wait on a per-key gate until the handoff completes (at most one
    value-copy round trip), so no window exists where a key is servable
    by nobody. A proxied op releases the key's lock before its hop: held
    across the RPC, it would deadlock with a drain handing the key back
    (the peer holds its own key lock while it waits on our
    ``shard.receive``).
    """

    def __init__(self, sim: Simulator, network: Network, address: str,
                 device: KvSsd, server: RpcServer):
        self.sim = sim
        self.address = address
        self.device = device
        #: key -> the DPU now owning it (populated by handoffs).
        self.forward: Dict[bytes, str] = {}
        self._locks = _KeyLocks(sim)
        self.rpc = RpcClient(
            sim, UdpSocket(sim, network.endpoint(f"{address}.fwd"))
        )
        self._metrics = sim.telemetry.unique_scope(f"shard.forwarder.{address}")
        self._forwarded = self._metrics.counter("forwarded_ops")
        self._gated = self._metrics.counter("gated_ops")
        self._handoffs = self._metrics.counter("handoffs")
        self._keys_handed_off = self._metrics.counter("keys_handed_off")
        self._bytes_handed_off = self._metrics.counter("bytes_handed_off")
        self._forward_entries = self._metrics.gauge("forward_entries")
        server.register("kv.get", self._get)
        server.register("kv.put", self._write)
        server.register("kv.delete", self._write)
        server.register("shard.keys", self._keys)
        server.register("shard.handoff", self._handoff)
        server.register("shard.receive", self._receive)

    # -- read-through counters -----------------------------------------------
    @property
    def forwarded_ops(self) -> int:
        """Ops proxied to another DPU because the key was handed off."""
        return self._forwarded.value

    @property
    def gated_ops(self) -> int:
        """Ops that had to wait for a key's lock (handoff or another op)."""
        return self._gated.value

    # -- the locked, forwarding kv surface -----------------------------------
    def _get(self, key: bytes):
        """Process: serve a get locally, or proxy it to the new owner."""
        key = bytes(key)
        gate = self._locks.acquire(key)
        if gate is not None:
            yield gate
            self._gated.inc()
        dest = self.forward.get(key)
        if dest is not None:
            self._locks.release(key)
            self._forwarded.inc()
            return (yield from self.rpc.call(
                dest, "kv.get", key,
                request_size=KV_HEADER + len(key), response_size=KV_VALUE,
            ))
        try:
            return (yield from self.device.get(key))
        finally:
            self._locks.release(key)

    def _write(self, key: bytes, value: Optional[bytes] = None):
        """Process: the one write path — a put, or with no value a
        delete — applied locally, or proxied to the new owner."""
        key = bytes(key)
        if value is not None:
            value = bytes(value)
        gate = self._locks.acquire(key)
        if gate is not None:
            yield gate
            self._gated.inc()
        dest = self.forward.get(key)
        if dest is not None:
            self._locks.release(key)
            self._forwarded.inc()
            args = (key,) if value is None else (key, value)
            yield from self.rpc.call(
                dest, "kv.delete" if value is None else "kv.put", *args,
                request_size=KV_HEADER + sum(map(len, args)),
                response_size=KV_ACK,
            )
            return True
        try:
            if value is None:
                yield from self.device.delete(key)
            else:
                yield from self.device.put(key, value)
            return True
        finally:
            self._locks.release(key)

    # -- migration verbs -----------------------------------------------------
    def _keys(self):
        """All keys resident on this DPU, sorted (the migration work list)."""
        return [key for key, __ in self.device.lsm.items()
                if key not in self.forward]

    def _receive(self, key: bytes, value: bytes):
        """Process: accept a handed-off value as the key's new owner.

        Distinct from ``kv.put`` on purpose: a received key becomes
        *locally resident*, so any stale forwarding entry for it (left
        by an earlier migration that moved the key away) is cleared
        rather than followed — following it would bounce the copy back
        to the node currently handing the key off, which holds the
        key's lock and is waiting on this very RPC.
        """
        key = bytes(key)
        gate = self._locks.acquire(key)
        if gate is not None:
            yield gate
        try:
            if self.forward.pop(key, None) is not None:
                self._forward_entries.set(len(self.forward))
            yield from self.device.put(key, bytes(value))
            return True
        finally:
            self._locks.release(key)

    def _handoff(self, dest: str, keys):
        """Process: move one segment of keys to *dest*, gating each key.

        Per key: read the local value, push it to *dest* as a
        BACKGROUND-priority put over the network, drop it locally, then
        point the forwarding table at *dest* and release the gate. Ops
        that arrived for the key mid-copy resume and follow the
        forwarding entry.
        """
        moved = 0
        tracer = self.sim.tracer
        span = tracer.span(
            "shard.handoff", "shard",
            source=self.address, dest=dest, keys=len(keys),
        ) if tracer.enabled else NULL_SPAN
        with span:
            for key in keys:
                key = bytes(key)
                gate = self._locks.acquire(key)
                if gate is not None:
                    yield gate
                try:
                    if key in self.forward:
                        continue
                    value = yield from self.device.get(key)
                    if value is not None:
                        yield from self.rpc.call(
                            dest, "shard.receive", key, value,
                            request_size=KV_HEADER + len(key) + len(value),
                            response_size=KV_ACK,
                            priority=int(Priority.BACKGROUND),
                        )
                        self._bytes_handed_off.inc(len(key) + len(value))
                        yield from self.device.delete(key)
                    self.forward[key] = dest
                    moved += 1
                finally:
                    self._locks.release(key)
            self._handoffs.inc()
            self._keys_handed_off.inc(moved)
            self._forward_entries.set(len(self.forward))
        return moved


class ShardedKvCluster:
    """KV-SSD DPUs on a consistent-hash ring with elastic membership.

    The paper's §2.4 answer to multi-DPU applications: clients hash keys
    to the owning DPU and talk to it directly — shared-nothing, no
    coordinator in the data path. Every DPU sits behind a
    :class:`ShardForwarder` and the cluster carries a routing **epoch**
    that :class:`~repro.sharding.migration.ShardMigrator` advances on
    every completed topology change.

    Args:
        sim: the simulator everything runs on.
        network: the shared star network.
        dpu_count: initial members (more can join live via the migrator).
        ssd_blocks: flash capacity per DPU namespace.
        queue_capacity: per-DPU RPC queue bound (``None`` = unbounded
            dispatch); with a bound, ``workers`` run-to-completion
            workers drain it — the wimpy-core service model E16 scales.
        workers: worker processes per bounded server (min 2 so client
            traffic still flows while a worker performs a handoff).
        queue_policy: drop discipline for the bounded per-DPU queue
            (:class:`~repro.overload.QueuePolicy`). FIFO refuses at the
            tail when full; CODEL additionally drops requests whose
            sojourn exceeds ``codel_target`` for ``codel_interval`` —
            the overload-plane knob that keeps *served* latency bounded
            when an open-loop ramp outruns the fleet (E20 relies on it
            so an SLO breach reads as shed work, not unbounded p99).
        codel_target / codel_interval: CoDel tuning, forwarded to each
            DPU's :class:`~repro.transport.RpcServer`; ignored for
            FIFO/LIFO queues.
        name: address prefix for this cluster's DPUs (``{name}-dpu-N``).
            The default keeps single-cluster deployments unchanged; a
            geo-replicated deployment gives each region a distinct name
            so addresses stay globally unique across the WAN fabric.
    """

    def __init__(self, sim: Simulator, network: Network, dpu_count: int = 4,
                 ssd_blocks: int = 16384,
                 queue_capacity: Optional[int] = None, workers: int = 2,
                 queue_policy: QueuePolicy = QueuePolicy.FIFO,
                 codel_target: float = 5e-3, codel_interval: float = 10e-3,
                 name: str = "shard"):
        if dpu_count < 1:
            raise ConfigurationError("need at least one DPU")
        if not name:
            raise ConfigurationError("cluster name must be non-empty")
        if queue_capacity is not None and workers < 2:
            raise ConfigurationError(
                "bounded sharded servers need >= 2 workers (one may block "
                "on a handoff)"
            )
        self.sim = sim
        self.network = network
        self.name = name
        self.ssd_blocks = ssd_blocks
        self.queue_capacity = queue_capacity
        self.workers = workers
        self.queue_policy = queue_policy
        self.codel_target = codel_target
        self.codel_interval = codel_interval
        self.ring = HashRing()
        #: Monotonic routing-topology version; bumped by the migrator.
        self.epoch = 1
        self.addresses: List[str] = []
        self.devices: Dict[str, KvSsd] = {}
        self.servers: Dict[str, RpcServer] = {}
        self.forwarders: Dict[str, ShardForwarder] = {}
        scope = ("shard.cluster" if name == "shard"
                 else f"shard.cluster.{name}")
        self._metrics = sim.telemetry.unique_scope(scope)
        self._nodes_gauge = self._metrics.gauge("nodes")
        self._epoch_gauge = self._metrics.gauge("epoch")
        self._epoch_gauge.set(self.epoch)
        for index in range(dpu_count):
            address = self.spawn_dpu()
            self.ring.add_node(address)
        self._nodes_gauge.set(len(self.ring))

    def spawn_dpu(self) -> str:
        """Stand up one DPU (device + server + forwarder), *off* the ring.

        The new DPU serves immediately but owns no keys until a
        :class:`~repro.sharding.migration.ShardMigrator` migrates ranges
        onto it and commits the new topology.
        """
        address = f"{self.name}-dpu-{len(self.addresses)}"
        device, server = build_kv_dpu(
            self.sim, self.network, address, self.ssd_blocks,
            queue_capacity=self.queue_capacity, workers=self.workers,
            queue_policy=self.queue_policy,
            codel_target=self.codel_target,
            codel_interval=self.codel_interval,
        )
        forwarder = ShardForwarder(self.sim, self.network, address, device,
                                   server)
        self.addresses.append(address)
        self.devices[address] = device
        self.servers[address] = server
        self.forwarders[address] = forwarder
        return address

    # -- topology ------------------------------------------------------------
    def members(self) -> List[str]:
        """Active ring members, in join order."""
        return self.ring.nodes

    def owner_of(self, key: bytes) -> str:
        """The DPU owning *key* under the current epoch's ring."""
        return self.ring.owner_of(key)

    def commit_join(self, address: str) -> int:
        """Place an already-migrated DPU on the ring; returns the epoch."""
        self.ring.add_node(address)
        return self._bump()

    def commit_leave(self, address: str) -> int:
        """Drop a drained DPU from the ring; returns the new epoch."""
        self.ring.remove_node(address)
        return self._bump()

    def _bump(self) -> int:
        self.epoch += 1
        self._epoch_gauge.set(self.epoch)
        self._nodes_gauge.set(len(self.ring))
        return self.epoch
