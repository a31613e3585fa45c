"""Open-loop traffic generation over the sharded data plane.

The generator drives a :class:`~repro.sharding.ShardedKvCluster`
through per-tenant :class:`~repro.sharding.ShardedKvClient` handles,
translating a :class:`~repro.workload.spec.WorkloadSpec` into simulated
operations:

* ``get``/``put`` — single-key ops on Zipf-drawn keys,
* ``scan`` — ``get_many`` over ``scan_span`` consecutive keys starting
  at a Zipf-drawn rank (owner-grouped, batched on the wire),
* ``analytics`` — ``get_many`` over ``analytics_span`` independent
  Zipf draws, a wide scatter that touches most of the fleet.

:class:`OpenLoopTraffic` models *millions of independent users*: the
offered rate follows each tenant's arrival curve regardless of how the
cluster is coping, via Lewis thinning of a Poisson process at the
curve's peak rate.  Overload therefore shows up as queueing, shed ops,
and latency — never as a politely backing-off client.

Every random draw comes from ``random.Random(f"{seed}/...")`` streams
owned per tenant, so a given seed produces a byte-identical operation
stream regardless of ``PYTHONHASHSEED`` or cluster behaviour; the sim
interleaving cannot perturb the draws because no two tenants share an
RNG.  :func:`arrival_preview` exposes the identical arrival/key stream
as text without building a cluster — the workload CLI and the
determinism tests both lean on it.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.transport import RpcError
from repro.workload.popularity import ZipfKeys
from repro.workload.spec import TenantSpec, WorkloadSpec

__all__ = ["OpenLoopTraffic", "arrival_preview"]

#: How often the offered/goodput gauges are refreshed (simulated s).
RATE_PERIOD = 0.002


def _draw_op(zipf: ZipfKeys, tenant: TenantSpec,
             oprng) -> Tuple[str, List[bytes]]:
    """One operation draw: the single source of per-arrival randomness.

    Shared by the generator and :func:`arrival_preview` so the
    previewed stream is exactly the stream the simulator replays.

    Reads, scans, and analytics follow the Zipf popularity — that skew
    is what makes caching and hot keys real.  Puts draw *uniformly*
    across the keyspace: writes land on individual user rows, and a
    Zipf-hot write key would pin its owner DPU's WAL at any fleet size,
    turning every capacity question into one unsplittable hot shard.
    """
    kind = tenant.mix.pick(oprng)
    if kind == "analytics":
        keys = [zipf.pick(oprng) for _ in range(tenant.analytics_span)]
    elif kind == "scan":
        keys = zipf.span(zipf.pick_index(oprng), tenant.scan_span)
    elif kind == "put":
        keys = [zipf.key(oprng.randrange(zipf.count))]
    else:
        keys = [zipf.pick(oprng)]
    return kind, keys


class OpenLoopTraffic:
    """Arrival-curve-driven load that does not wait for the cluster.

    One Poisson arrival process per tenant, thinned from the curve's
    peak rate down to ``curve.rate(t)`` (Lewis & Shedler): arrivals are
    candidate events at the peak rate, each kept with probability
    ``rate(t) / peak``, which reproduces the exact time-varying rate
    while keeping the draw count — and therefore the stream —
    independent of the cluster's behaviour. Outcomes are recorded as
    ``(started, finished, ok, ops, tenant, kind)`` tuples in completion
    order — deterministic per seed, and cheap enough to keep for a
    whole experiment run.
    """

    def __init__(self, sim, spec: WorkloadSpec, clients: Dict[str, object],
                 seed: int, horizon: float, *,
                 deadline: Optional[float] = None) -> None:
        missing = [t.name for t in spec.tenants if t.name not in clients]
        if missing:
            raise ValueError(f"no client for tenants: {', '.join(missing)}")
        self.sim = sim
        self.spec = spec
        self.clients = clients
        self.seed = seed
        self.horizon = horizon
        self.deadline = deadline
        self.zipf = ZipfKeys(spec.key_count, spec.zipf_skew)
        self.outcomes: List[Tuple[float, float, bool, int, str, str]] = []
        self.origin = 0.0
        metrics = sim.telemetry.unique_scope("workload.traffic")
        self._offered = metrics.counter("offered_ops")
        self._served = metrics.counter("served_ops")
        self._failed = metrics.counter("failed_ops")
        self._latency = metrics.histogram("op_latency")
        self._offered_rate = metrics.gauge("offered_rate")
        self._goodput_rate = metrics.gauge("goodput_rate")
        self._inflight = metrics.gauge("inflight")
        self._good = 0

    # -- derived accounting --------------------------------------------------
    @property
    def offered(self) -> int:
        """Arrivals admitted to the generator so far."""
        return self._offered.value

    @property
    def served(self) -> int:
        """Requests that completed without an RPC error."""
        return self._served.value

    @property
    def failed(self) -> int:
        """Requests that raised (timeout, shed, queue-full, ...)."""
        return self._failed.value

    @property
    def good(self) -> int:
        """Served requests that also finished within the deadline."""
        return self._good

    def latencies(self) -> List[float]:
        """Per-request latency of every served request, completion order."""
        return [f - s for s, f, ok, _, _, _ in self.outcomes if ok]

    # -- op execution --------------------------------------------------------
    def _op(self, tenant: TenantSpec, kind: str, keys: List[bytes]):
        """Process: run one pre-drawn operation, account for its outcome."""
        client = self.clients[tenant.name]
        started = self.sim.now
        self._inflight.value += 1.0
        ops = len(keys)
        ok = True
        try:
            if kind == "get":
                yield from client.get(keys[0])
            elif kind == "put":
                yield from client.put(keys[0], b"v" * tenant.value_size)
            else:  # scan / analytics
                yield from client.get_many(keys)
        except RpcError:
            ok = False
        finished = self.sim.now
        self._inflight.value -= 1.0
        if ok:
            self._served.value += 1
            self._latency.observe(finished - started)
            if self.deadline is None or finished - started <= self.deadline:
                self._good += 1
        else:
            self._failed.value += 1
        self.outcomes.append(
            (started, finished, ok, ops, tenant.name, kind)
        )

    def _rates_loop(self):
        """Process: refresh the offered/goodput rate gauges periodically."""
        prev_offered = 0
        prev_good = 0
        while self.sim.now < self.horizon:
            yield self.sim.timeout(RATE_PERIOD)
            offered, good = self._offered.value, self._good
            self._offered_rate.set((offered - prev_offered) / RATE_PERIOD)
            self._goodput_rate.set((good - prev_good) / RATE_PERIOD)
            prev_offered, prev_good = offered, good

    def start(self) -> None:
        """Spawn arrival processes; curve time 0 is the call instant."""
        self.origin = self.sim.now
        for tenant in self.spec.tenants:
            self.sim.spawn(self._arrivals(tenant))
        self.sim.spawn(self._rates_loop())

    def _arrivals(self, tenant: TenantSpec):
        rng = random.Random(f"{self.seed}/arrivals/{tenant.name}")
        oprng = random.Random(f"{self.seed}/ops/{tenant.name}")
        peak = tenant.curve.peak_rate
        sim = self.sim
        # A thinned candidate is a draw, not a wait: its gap folds onto
        # ``when`` left to right, the float a chain of timeouts reaches.
        when = sim.now
        while True:
            when += rng.expovariate(peak)
            if when >= self.horizon:
                yield sim.timeout_at(when)
                return
            if rng.random() * peak > tenant.curve.rate(when - self.origin):
                continue  # thinned: below the instantaneous rate
            yield sim.timeout_at(when)
            kind, keys = _draw_op(self.zipf, tenant, oprng)
            self._offered.value += 1
            sim.spawn(self._op(tenant, kind, keys))


def arrival_preview(spec: WorkloadSpec, seed: int,
                    limit: int = 32) -> Iterator[str]:
    """The open-loop arrival/key stream as canonical text lines.

    Replays exactly the thinning and op draws :class:`OpenLoopTraffic`
    would make for *seed* — same RNG stream names, same draw order per
    tenant — without a simulator or cluster, merging tenants by arrival
    time.  One line per accepted arrival::

        t=1.234ms tenant=web op=get key=key-00003

    Used by ``python -m repro.workload`` and by the determinism tests:
    the lines must be byte-identical across ``PYTHONHASHSEED`` values.
    """
    zipf = ZipfKeys(spec.key_count, spec.zipf_skew)

    def tenant_stream(tenant: TenantSpec) -> Iterator[Tuple[float, str]]:
        rng = random.Random(f"{seed}/arrivals/{tenant.name}")
        oprng = random.Random(f"{seed}/ops/{tenant.name}")
        peak = tenant.curve.peak_rate
        now = 0.0
        while True:
            now += rng.expovariate(peak)
            if rng.random() * peak > tenant.curve.rate(now):
                continue
            kind, keys = _draw_op(zipf, tenant, oprng)
            yield now, (
                f"t={now * 1e3:.3f}ms tenant={tenant.name} "
                f"op={kind} key={keys[0].decode()} n={len(keys)}"
            )

    streams = [tenant_stream(t) for t in spec.tenants]
    heads = []
    for index, stream in enumerate(streams):
        at, line = next(stream)
        heads.append((at, index, line))
    heapq.heapify(heads)
    for _ in range(limit):
        at, index, line = heapq.heappop(heads)
        yield line
        at, line = next(streams[index])
        heapq.heappush(heads, (at, index, line))
