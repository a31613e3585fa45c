"""A replicated KV cluster with client-driven failover (paper §2.4, §4).

The paper's C1/C2 workload split and discussion question 3: how to build
applications "executed over multiple DPUs"? Following the cited MICA
pattern, routing is *client-driven*: clients hash keys to the owning DPU
and talk to it directly — shared-nothing, run-to-completion, with no
coordinator in the data path. The plain (unreplicated, elastic) form of
that pattern is :mod:`repro.sharding`; this module is the chain-replicated
form E13 storms: K replicas per key, health-ordered reads, and a circuit
breaker per replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigurationError, DegradedError
from repro.overload.breaker import CircuitBreaker, CircuitOpenError
from repro.sharding.cluster import build_kv_dpu
from repro.sharding.ring import HashRing
from repro.hw.net import Network
from repro.sim import Simulator
from repro.storage.kvssd import KvSsd, KvSsdService
from repro.transport import RetryPolicy, RpcClient, RpcError, UdpSocket
from repro.verify.history import NULL_HISTORY


class ReplicatedDpuKvCluster:
    """K-way replicated KV cluster that survives dead or degraded DPUs.

    N standalone KV-SSD DPUs (``kv-dpu-0`` .. ``kv-dpu-N-1``) placed on a
    consistent-hash ring. Each key's replica chain is the K DPUs starting
    at its hash owner (consecutive on the ring). Writes walk the chain
    head-to-tail; reads are served by any live replica — a client-driven
    approximation of chain replication that keeps the DPUs dumb and
    shared-nothing. :meth:`kill` models an abrupt DPU death (its traffic
    blackholes at the switch) so failover paths can be exercised
    deterministically.
    """

    def __init__(self, sim: Simulator, network: Network, dpu_count: int = 4,
                 replication: int = 2, ssd_blocks: int = 65536):
        if dpu_count < 1:
            raise ConfigurationError("need at least one DPU")
        if not 1 <= replication <= dpu_count:
            raise ConfigurationError(
                f"replication factor {replication} needs "
                f"1..{dpu_count} replicas"
            )
        self.sim = sim
        self.network = network
        self.replication = replication
        self.addresses: List[str] = []
        self.devices: List[KvSsd] = []
        self.ring = HashRing()
        self.down: Set[str] = set()
        for index in range(dpu_count):
            address = f"kv-dpu-{index}"
            device, server = build_kv_dpu(sim, network, address, ssd_blocks)
            KvSsdService(server, device)
            self.addresses.append(address)
            self.devices.append(device)
            self.ring.add_node(address)

    def replicas_of(self, key: bytes) -> List[str]:
        """The key's replica chain, head (ring owner) first.

        Replicas are the next distinct DPUs clockwise on the hash ring,
        so they are always on distinct physical devices.
        """
        return self.ring.replicas_of(key, self.replication)

    def kill(self, index: int) -> str:
        """Abruptly kill one DPU: all frames to it vanish at the switch."""
        address = self.addresses[index]
        self.down.add(address)
        self.network.switch.blackhole(address)
        return address

    def revive(self, index: int) -> str:
        """Bring a killed DPU back (its replica data may be stale)."""
        address = self.addresses[index]
        self.down.discard(address)
        self.network.switch.restore(address)
        return address


class FailoverKvClient:
    """Client-driven failover over a :class:`ReplicatedDpuKvCluster`.

    The client owns the partition map *and* the health map: replicas that
    time out are marked down and demoted in the read preference order;
    :meth:`probe` (or a background :meth:`probe_all` sweep) marks them up
    again. Every RPC carries a timeout, bounded retries with exponential
    backoff + jitter, and an overall deadline, so a dead DPU costs a few
    retransmit intervals — never a hung simulation.

    Each replica is additionally guarded by a
    :class:`~repro.overload.CircuitBreaker`: after a few consecutive
    failed calls the circuit opens and further calls to that replica are
    refused *instantly* — an immediate failover down the chain instead
    of burning the per-call deadline re-timing-out against a corpse. A
    successful :meth:`probe` closes the circuit again.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        cluster: ReplicatedDpuKvCluster,
        timeout: float = 1.5e-3,
        retries: int = 1,
        deadline: float = 50e-3,
        policy: Optional[RetryPolicy] = None,
        breaker_failure_threshold: int = 3,
        breaker_reset_timeout: Optional[float] = None,
        history=None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.name = name
        #: A :class:`~repro.verify.HistoryRecorder` when one was passed:
        #: every KV op records invoke/outcome for consistency checking.
        self.history = history if history is not None else NULL_HISTORY
        self.rpc = RpcClient(sim, UdpSocket(sim, network.endpoint(name)))
        self.timeout = timeout
        self.retries = retries
        self.deadline = deadline
        self.policy = policy if policy is not None else RetryPolicy(
            base=timeout, multiplier=2.0, max_interval=max(timeout * 8, timeout),
            jitter=0.1,
        )
        self.health: Dict[str, bool] = {
            address: True for address in cluster.addresses
        }
        scope = sim.telemetry.unique_scope(f"dpu.failover.{name}")
        self._reads = scope.counter("reads")
        self._writes = scope.counter("writes")
        self._failed_ops = scope.counter("failed_ops")
        # Ops that only succeeded on a non-head replica.
        self._failovers = scope.counter("failovers")
        # Individual replica RPCs that timed out or errored.
        self._replica_failures = scope.counter("replica_failures")
        self._marked_down = scope.gauge("marked_down")
        if breaker_reset_timeout is None:
            breaker_reset_timeout = timeout * 20
        self.breakers: Dict[str, CircuitBreaker] = {
            address: CircuitBreaker(
                sim, scope.scope(f"breaker.{address}"),
                failure_threshold=breaker_failure_threshold,
                reset_timeout=breaker_reset_timeout,
            )
            for address in cluster.addresses
        }

    # -- read-through counters -------------------------------------------------
    @property
    def failed_ops(self) -> int:
        """Ops no replica could serve."""
        return self._failed_ops.value

    @property
    def failovers(self) -> int:
        """Ops that only succeeded on a non-head replica."""
        return self._failovers.value

    @property
    def replica_failures(self) -> int:
        """Individual replica RPCs that timed out or errored."""
        return self._replica_failures.value

    @property
    def marked_down(self) -> List[str]:
        """Replicas the health map currently holds down."""
        return [a for a, up in self.health.items() if not up]

    # -- internals -----------------------------------------------------------
    def _call(self, address: str, method: str, *args,
              request_size: int = 64, response_size: int = 64):
        return self.rpc.call_guarded(
            self.breakers[address], address, method, *args,
            request_size=request_size, response_size=response_size,
            timeout=self.timeout, retries=self.retries,
            deadline=self.deadline, policy=self.policy,
        )

    def _ordered_replicas(self, key: bytes) -> List[str]:
        """The replica chain, healthy members first (stable order)."""
        chain = self.cluster.replicas_of(key)
        return (
            [a for a in chain if self.health[a]]
            + [a for a in chain if not self.health[a]]
        )

    def _set_health(self, address: str, up: bool) -> None:
        """Record a health change; the gauge follows the map both ways."""
        if self.health[address] is not up:
            self.health[address] = up
            self._marked_down.set(len(self.marked_down))

    def _mark_down(self, address: str) -> None:
        self._set_health(address, False)
        self._replica_failures.inc()

    # -- health probing ------------------------------------------------------
    def probe(self, address: str):
        """Process: one health probe; updates the health map.

        Probes bypass the breaker (they *are* the recovery mechanism): a
        verified success closes an open circuit immediately, a failed
        probe counts as breaker evidence like any failed call.
        """
        breaker = self.breakers[address]
        try:
            yield from self.rpc.call(
                address, "kv.ping", request_size=16, response_size=16,
                timeout=self.timeout, retries=0, deadline=self.timeout * 2,
            )
        except RpcError:
            self._mark_down(address)
            breaker.record_failure()
            return False
        self._set_health(address, True)
        breaker.record_success()
        return True

    def probe_all(self):
        """Process: sweep every DPU once (run periodically by the owner)."""
        alive = 0
        for address in self.cluster.addresses:
            ok = yield from self.probe(address)
            alive += 1 if ok else 0
        return alive

    # -- the KV surface ------------------------------------------------------
    def put(self, key: bytes, value: bytes):
        """Process: write the replica chain head-to-tail; one ack suffices
        for availability (skipped replicas are marked down for repair)."""
        key, value = bytes(key), bytes(value)
        pending = self.history.invoke(self.name, "w", key, value)
        acked = 0
        last_error: Optional[RpcError] = None
        for position, address in enumerate(self.cluster.replicas_of(key)):
            try:
                yield from self._call(
                    address, "kv.put", key, value,
                    request_size=32 + len(key) + len(value), response_size=16,
                )
            except CircuitOpenError:
                continue  # open circuit: fail over instantly, spend nothing
            except RpcError as error:
                self._mark_down(address)
                last_error = error
                continue
            self._set_health(address, True)
            acked += 1
            if position > 0 and acked == 1:
                self._failovers.inc()
        if acked == 0:
            self._failed_ops.inc()
            # Zero acks does not mean zero effect: a request may have
            # landed on a replica whose response frame was lost.
            pending.indeterminate()
            raise DegradedError(f"put {key!r}: no replica reachable ({last_error})")
        self._writes.inc()
        pending.ok()
        return acked

    def get(self, key: bytes, expected_value_size: int = 128):
        """Process: read from the first live replica, failing over down
        the chain when the preferred one is dead."""
        key = bytes(key)
        pending = self.history.invoke(self.name, "r", key)
        last_error: Optional[RpcError] = None
        head = self.cluster.replicas_of(key)[0]
        for address in self._ordered_replicas(key):
            try:
                value = yield from self._call(
                    address, "kv.get", key,
                    request_size=32 + len(key),
                    response_size=expected_value_size,
                )
            except CircuitOpenError:
                continue  # open circuit: fail over instantly, spend nothing
            except RpcError as error:
                self._mark_down(address)
                last_error = error
                continue
            self._set_health(address, True)
            if address != head:
                self._failovers.inc()
            self._reads.inc()
            pending.ok(value)
            return value
        self._failed_ops.inc()
        pending.fail()
        raise DegradedError(f"get {key!r}: no replica reachable ({last_error})")

    def delete(self, key: bytes):
        """Process: chain-wide delete (same walk as put)."""
        key = bytes(key)
        pending = self.history.invoke(self.name, "d", key)
        acked = 0
        for address in self.cluster.replicas_of(key):
            try:
                yield from self._call(
                    address, "kv.delete", key,
                    request_size=32 + len(key), response_size=16,
                )
            except CircuitOpenError:
                continue  # open circuit: fail over instantly, spend nothing
            except RpcError:
                self._mark_down(address)
                continue
            acked += 1
        if acked == 0:
            self._failed_ops.inc()
            pending.indeterminate()
            raise DegradedError(f"delete {key!r}: no replica reachable")
        self._writes.inc()
        pending.ok()
        return acked
