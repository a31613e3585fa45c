"""The scale-out KV client: ring routing + hot-key cache + batched RPC.

The client side of the scale-out data plane. A
:class:`ShardedKvClient` owns one egress socket and, per op, does three
things the naive per-op client cannot:

* **route** on the cluster's shared :class:`~repro.sharding.ring.
  HashRing` — no directory service, no lookup round trip;
* **cache** hot values under a lease, tagged with the routing epoch so
  one migration commit invalidates every stale entry at once;
* **batch** multi-key ops (:meth:`get_many` / :meth:`put_many`) into
  one :meth:`~repro.transport.RpcClient.call_batch` round trip per
  owner per ``batch_limit`` keys — one wire request, one admission
  token, one queue slot for the whole segment.

E16 sweeps these knobs: the ≥4× 8-DPU goodput target only holds with
batching and caching on, which is the point.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.sharding.cache import HotKeyCache
from repro.sharding.cluster import ShardedKvCluster
from repro.sim import Simulator
from repro.transport import BatchOp, MAX_BATCH_OPS, RpcClient, RpcError, UdpSocket
from repro.verify.history import NULL_HISTORY

__all__ = ["ShardedKvClient"]


class ShardedKvClient:
    """One tenant's handle onto a :class:`ShardedKvCluster`.

    Args:
        sim: the simulator.
        cluster: the cluster to route against. The client reads the
            cluster's live ring and epoch on **every** op, so it follows
            topology changes as soon as they commit — between a handoff
            and the commit it routes to the old owner, whose forwarding
            stub proxies the op.
        name: unique suffix for this client's endpoint and metrics.
        cache: optional :class:`~repro.sharding.cache.HotKeyCache`;
            ``None`` disables client-side caching entirely.
        batch_limit: max ops coalesced into one wire request by the
            multi-key paths (clamped to the transport's
            :data:`~repro.transport.MAX_BATCH_OPS`).
        timeout / retries / deadline: per-call wire timing for the
            single-key ops. The defaults wait forever — right for a
            healthy fabric; chaos runs set them so an op parked on a
            blackholed DPU resolves as a *failed* (read) or
            *indeterminate* (write) outcome instead of wedging its
            client process.
        history: optional :class:`~repro.verify.HistoryRecorder`; when
            set, the single-key ops record invoke/outcome on the sim
            clock for consistency checking.
    """

    def __init__(self, sim: Simulator, cluster: ShardedKvCluster,
                 name: str = "client", *,
                 cache: Optional[HotKeyCache] = None,
                 batch_limit: int = 16,
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 deadline: Optional[float] = None,
                 history=None):
        if not 1 <= batch_limit <= MAX_BATCH_OPS:
            raise ConfigurationError(
                f"batch_limit must be in 1..{MAX_BATCH_OPS}"
            )
        self.sim = sim
        self.cluster = cluster
        self.name = name
        self.cache = cache
        self.batch_limit = batch_limit
        self.timeout = timeout
        self.retries = retries
        self.deadline = deadline
        self.history = history if history is not None else NULL_HISTORY
        self.rpc = RpcClient(
            sim, UdpSocket(sim, cluster.network.endpoint(f"shard-client-{name}"))
        )
        self._metrics = sim.telemetry.unique_scope(f"shard.client.{name}")
        self._ops = self._metrics.counter("ops")
        self._round_trips = self._metrics.counter("round_trips")
        self._cache_served = self._metrics.counter("cache_served")

    # -- read-through counters -------------------------------------------------
    @property
    def ops(self) -> int:
        """Logical KV operations completed by this client."""
        return self._ops.value

    @property
    def round_trips(self) -> int:
        """Wire round trips issued (batching makes this < :attr:`ops`)."""
        return self._round_trips.value

    # -- single-key ops --------------------------------------------------------
    def get(self, key: bytes, *, priority: int = 0):
        """Process: read one key (cache → owner DPU), returns the value."""
        key = bytes(key)
        epoch = self.cluster.epoch
        # Invoked before the cache lookup: a lease-served value is an
        # observation too, and a stale one must reach the checker.
        pending = self.history.invoke(self.name, "r", key)
        if self.cache is not None:
            cached = self.cache.lookup(key, epoch)
            if cached is not None:
                self._ops.inc()
                self._cache_served.inc()
                pending.ok(cached)
                return cached
        owner = self.cluster.owner_of(key)
        try:
            value = yield from self.rpc.call(
                owner, "kv.get", key,
                request_size=32 + len(key), response_size=128,
                priority=priority, timeout=self.timeout,
                retries=self.retries, deadline=self.deadline,
            )
        except RpcError:
            pending.fail()
            raise
        self._ops.inc()
        self._round_trips.inc()
        if self.cache is not None and value is not None:
            self.cache.fill(key, value, epoch)
        pending.ok(value)
        return value

    def put(self, key: bytes, value: bytes, *, priority: int = 0):
        """Process: write one key to its owner; invalidates the cache."""
        key, value = bytes(key), bytes(value)
        owner = self.cluster.owner_of(key)
        pending = self.history.invoke(self.name, "w", key, value)
        try:
            yield from self.rpc.call(
                owner, "kv.put", key, value,
                request_size=32 + len(key) + len(value), response_size=16,
                priority=priority, timeout=self.timeout,
                retries=self.retries, deadline=self.deadline,
            )
        except RpcError:
            # The request (or only its ack) may have been lost: the
            # write may have landed. Never record it as a clean failure.
            pending.indeterminate()
            raise
        self._ops.inc()
        self._round_trips.inc()
        if self.cache is not None:
            self.cache.invalidate(key)
        pending.ok()
        return True

    def delete(self, key: bytes, *, priority: int = 0):
        """Process: delete one key at its owner; invalidates the cache."""
        key = bytes(key)
        owner = self.cluster.owner_of(key)
        pending = self.history.invoke(self.name, "d", key)
        try:
            yield from self.rpc.call(
                owner, "kv.delete", key,
                request_size=32 + len(key), response_size=16,
                priority=priority, timeout=self.timeout,
                retries=self.retries, deadline=self.deadline,
            )
        except RpcError:
            pending.indeterminate()
            raise
        self._ops.inc()
        self._round_trips.inc()
        if self.cache is not None:
            self.cache.invalidate(key)
        pending.ok()
        return True

    # -- batched multi-key ops -------------------------------------------------
    def _group_by_owner(
        self, keys: Sequence[bytes]
    ) -> "List[Tuple[str, List[int]]]":
        """Partition key *positions* by owning DPU, preserving order."""
        groups: Dict[str, List[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self.cluster.owner_of(key), []).append(position)
        return list(groups.items())

    def _scatter(self, thunks):
        """Process: run sub-batch processes concurrently, join them all.

        The pipelined half of batching: per-owner sub-batches of one
        multi-key op travel in parallel, so the op's latency is the
        *slowest* owner's round trip, not the sum — without this, a
        batch spanning many DPUs serializes and scaling flattens. The
        first sub-batch failure is re-raised after every sub-batch has
        settled (no orphaned in-flight work). A single sub-batch has
        nothing to overlap with and runs in the caller's process.
        """
        if len(thunks) == 1:
            yield from thunks[0]()
            return
        errors: List[RpcError] = []

        def runner(thunk):
            try:
                yield from thunk()
            except RpcError as error:
                errors.append(error)

        for process in [self.sim.process(runner(t)) for t in thunks]:
            yield process
        if errors:
            raise errors[0]

    def get_many(self, keys: Iterable[bytes], *, priority: int = 0):
        """Process: read many keys with batched, owner-grouped RPCs.

        Returns values aligned with *keys* (``None`` for absent keys).
        Cache hits are served locally; only misses go to the wire, one
        ``call_batch`` per owner per :attr:`batch_limit` misses.
        """
        keys = [bytes(key) for key in keys]
        epoch = self.cluster.epoch
        values: List[object] = [None] * len(keys)
        misses: List[int] = []
        for position, key in enumerate(keys):
            if self.cache is not None:
                cached = self.cache.lookup(key, epoch)
                if cached is not None:
                    values[position] = cached
                    self._cache_served.inc()
                    continue
            misses.append(position)
        def fetch(owner, chunk):
            ops = [
                BatchOp("kv.get", (keys[p],),
                        request_size=32 + len(keys[p]),
                        response_size=128)
                for p in chunk
            ]
            responses = yield from self.rpc.call_batch(
                owner, ops, priority=priority,
            )
            self._round_trips.inc()
            for p, response in zip(chunk, responses):
                if not response.ok:
                    raise RpcError(response.error)
                values[p] = response.result
                if self.cache is not None and response.result is not None:
                    self.cache.fill(keys[p], response.result, epoch)

        thunks = []
        for owner, positions in self._group_by_owner(
            [keys[p] for p in misses]
        ):
            actual = [misses[p] for p in positions]
            for start in range(0, len(actual), self.batch_limit):
                chunk = actual[start:start + self.batch_limit]
                thunks.append(
                    lambda owner=owner, chunk=chunk: fetch(owner, chunk)
                )
        if thunks:
            yield from self._scatter(thunks)
        self._ops.inc(len(keys))
        return values

    def put_many(self, pairs: Iterable[Tuple[bytes, bytes]], *,
                 priority: int = 0):
        """Process: write many pairs with batched, owner-grouped RPCs."""
        pairs = [(bytes(k), bytes(v)) for k, v in pairs]

        def push(owner, chunk):
            ops = [
                BatchOp("kv.put", pairs[p],
                        request_size=32 + len(pairs[p][0])
                        + len(pairs[p][1]),
                        response_size=16)
                for p in chunk
            ]
            responses = yield from self.rpc.call_batch(
                owner, ops, priority=priority,
            )
            self._round_trips.inc()
            for p, response in zip(chunk, responses):
                if not response.ok:
                    raise RpcError(response.error)
                if self.cache is not None:
                    self.cache.invalidate(pairs[p][0])

        thunks = []
        for owner, positions in self._group_by_owner([k for k, _ in pairs]):
            for start in range(0, len(positions), self.batch_limit):
                chunk = positions[start:start + self.batch_limit]
                thunks.append(
                    lambda owner=owner, chunk=chunk: push(owner, chunk)
                )
        if thunks:
            yield from self._scatter(thunks)
        self._ops.inc(len(pairs))
        return True
