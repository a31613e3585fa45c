"""A region-aware KV client: failover, write replay, bounded-stale reads.

The geo analogue of :class:`~repro.dpu.cluster.FailoverKvClient`, one
level up: instead of replicas inside a rack it walks *regions*, each
guarded by its own :class:`~repro.overload.CircuitBreaker`. The client
is **sticky** — after failing over it keeps sending to the surviving
region rather than re-paying a dead primary's deadline per op — and
**replays** unacknowledged writes: a put whose ack was lost to a
partition is re-issued to the next region in preference order (safe,
because writes are LWW-versioned at the gateways; the replay's fresh
stamp wins over the stranded original if both eventually replicate).

Reads can be served from the client's *home* region as
staleness-bounded follower reads: the gateway reports how far behind it
is on the current primary's writes, and the client only accepts the
local value when that age is within ``stale_bound``. Wiring in a
:class:`~repro.overload.BrownoutController` makes this automatic — when
the ladder reaches its ``serve_stale`` rung, reads shed their WAN round
trip exactly when the system needs the capacity back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.errors import ConfigurationError, DegradedError
from repro.georep.region import BREAKER_FAILURES, BREAKER_RESET, GeoCluster
from repro.overload import BrownoutController
from repro.sharding.core import KvClientCore
from repro.transport import RetryBudget

__all__ = ["GeoKvClient"]

#: Per-attempt wire timing sized for default WAN RTTs (~10 ms).
CALL_TIMEOUT = 12e-3
CALL_RETRIES = 1
CALL_DEADLINE = 30e-3
#: Pause between full preference-order walks that all failed.
ROUND_PAUSE = 10e-3


class GeoKvClient(KvClientCore):
    """One tenant's geo-replicated KV handle.

    A :class:`~repro.sharding.core.KvClientCore` whose candidates are
    regions in sticky preference order, each behind its own breaker.

    Args:
        sim: the simulator.
        cluster: the :class:`~repro.georep.region.GeoCluster` to use.
        name: unique suffix for this client's endpoint and metrics.
        home: region whose network hosts this client's endpoint (and
            serves its bounded-staleness follower reads).
        preference: region failover order, primary first; defaults to
            the cluster's region order. Must include *home*.
        timeout / retries: per-attempt wire timing of every call.
        rounds: full preference-order walks before an op gives up.
        stale_bound: max follower staleness (seconds) accepted when
            stale reads are active.
        brownout: optional ladder; while its mode has ``serve_stale``
            set, reads try the home follower first.
        retry_budget: optional shared cap on retransmissions, exported
            under this client's metric path.
        history: optional :class:`~repro.verify.HistoryRecorder`; when
            set, every op's invoke/outcome is recorded on the sim clock
            for consistency checking. A failed write records as
            *indeterminate* (the ack was lost, the write may have
            landed) unless no region's circuit let a request out;
            follower reads record their served staleness.
    """

    def __init__(
        self,
        sim,
        cluster: GeoCluster,
        name: str,
        home: str,
        *,
        preference: Optional[Sequence[str]] = None,
        timeout: float = CALL_TIMEOUT,
        retries: int = CALL_RETRIES,
        rounds: int = 3,
        stale_bound: float = 50e-3,
        brownout: Optional[BrownoutController] = None,
        retry_budget: Optional[RetryBudget] = None,
        history=None,
    ):
        self.home = home
        self.preference: List[str] = list(
            preference if preference is not None else cluster.regions
        )
        if home not in self.preference:
            raise ConfigurationError(f"home {home!r} not in preference list")
        for region in self.preference:
            cluster.region(region)  # validate names
        self.rounds = rounds
        self.stale_bound = stale_bound
        self.brownout = brownout
        #: Region ops are currently routed to (sticky across failovers).
        self.current = self.preference[0]
        super().__init__(
            sim, cluster.fabric.endpoint(home, f"geo-{name}"), name,
            timeout=timeout, retries=retries, deadline=CALL_DEADLINE,
            retry_budget=retry_budget, history=history,
        )
        self._metrics = sim.telemetry.unique_scope(f"geo.client.{name}")
        self._guard(self._metrics,
                    {r: cluster.region(r).address for r in self.preference},
                    BREAKER_FAILURES, BREAKER_RESET)
        self._ops = self._metrics.counter("ops")
        self._reads = self._metrics.counter("reads")
        self._writes = self._metrics.counter("writes")
        self._failed = self._metrics.counter("failed_ops")
        self._failovers = self._metrics.counter("failovers")
        self._replayed = self._metrics.counter("replayed_writes")
        self._stale_served = self._metrics.counter("stale_reads_served")
        self._stale_fallbacks = self._metrics.counter("stale_read_fallbacks")
        self._region_gauge = self._metrics.gauge("current_region")
        self.max_staleness_served = 0.0

    # -- read-through counters ------------------------------------------------
    @property
    def failovers(self) -> int:
        """Ops answered by a region other than the one tried first."""
        return self._failovers.value

    @property
    def replayed_writes(self) -> int:
        """Writes re-issued after at least one unacknowledged attempt."""
        return self._replayed.value

    @property
    def stale_reads_served(self) -> int:
        """Reads served by the home follower within the staleness bound."""
        return self._stale_served.value

    # -- routing --------------------------------------------------------------
    def _ordered(self) -> List[str]:
        return [self.current] + [
            region for region in self.preference if region != self.current
        ]

    def _settle(self, region: str, first: str, replayed: bool) -> None:
        if region != first:
            self._failovers.value += 1
        if replayed:
            self._replayed.value += 1
        if region != self.current:
            self.current = region
            self._region_gauge.set(self.preference.index(region))

    def _walk(self, pending, method: str, key: bytes, value: Optional[bytes],
              request_size: int, response_size: int, *, write: bool):
        """Process: try regions in order until one answers, with replay.

        A full walk that fails everywhere pauses and retries (up to
        ``rounds`` walks) — during a short total outage writes park here
        instead of failing, which is what lets the disaster drill
        promise zero lost *acknowledged* writes: an op is either acked
        by a region that logged it, or still the client's to retry.
        When every walk failed, *pending* resolves by the core's rule.
        """
        first = self.current
        failed_attempts = 0
        for round_index in range(self.rounds):
            region, result, attempts = yield from self._first_answer(
                self._ordered(), method, key, value, request_size=request_size,
                response_size=response_size,
            )
            failed_attempts += attempts
            if region is not None:
                self._settle(region, first, write and failed_attempts > 0)
                return region, result
            if round_index + 1 < self.rounds:
                yield self.sim.timeout(ROUND_PAUSE)
        self._failed.value += 1
        pending.raised(sent=failed_attempts > 0)
        raise DegradedError(
            f"geo {method} failed in every region after "
            f"{failed_attempts} attempts"
        )

    # -- the KV surface -------------------------------------------------------
    def put(self, key: bytes, value: bytes):
        """Process: write via the current region; returns (stamp, region)."""
        key, value = bytes(key), bytes(value)
        return self._write("w", "geo.put", key, value,
                           48 + len(key) + len(value))

    def delete(self, key: bytes):
        """Process: delete via the current region; returns (stamp, region)."""
        key = bytes(key)
        return self._write("d", "geo.delete", key, None, 48 + len(key))

    def _write(self, action: str, method: str, key: bytes,
               value: Optional[bytes], request_size: int):
        """Process: the one write path; returns ``(stamp, region)``."""
        pending = self.history.invoke(self.name, action, key, value)
        region, stamp = yield from self._walk(
            pending, method, key, value, request_size, 24, write=True,
        )
        self._writes.value += 1
        self._ops.value += 1
        pending.ok(stamp=stamp)
        return stamp, region

    def get(self, key: bytes):
        """Process: read *key*; possibly from the home follower.

        A bounded-staleness local read is attempted while the attached
        brownout ladder is in a ``serve_stale`` mode. The follower's
        reported staleness is checked against ``stale_bound``; too stale
        falls back to the primary walk, so the bound is a guarantee, not
        a hint.
        """
        key = bytes(key)
        pending = self.history.invoke(self.name, "r", key)
        if (self.brownout is not None and self.brownout.serve_stale
                and self.home != self.current):
            served = yield from self._stale_get(key, self.stale_bound)
            if served is not _PRIMARY:
                value, staleness = served
                pending.ok(value, staleness=staleness)
                return value
        __, (value, __) = yield from self._walk(
            pending, "geo.get", key, None, 48 + len(key), 136, write=False,
        )
        self._reads.value += 1
        self._ops.value += 1
        pending.ok(value)
        return value

    def _stale_get(self, key: bytes, bound: float):
        """Process: home-follower read. Returns ``(value, staleness)``,
        or ``_PRIMARY`` when the primary walk must run instead."""
        home, answer, __ = yield from self._first_answer(
            (self.home,), "geo.get", key, self.current,
            request_size=48 + len(key), response_size=136,
        )
        if home is None:
            return _PRIMARY
        value, staleness = answer
        if staleness > bound:
            self._stale_fallbacks.value += 1
            return _PRIMARY
        self._stale_served.value += 1
        if staleness > self.max_staleness_served:
            self.max_staleness_served = staleness
        self._reads.value += 1
        self._ops.value += 1
        return value, staleness


#: Sentinel: the follower read declined and the primary walk must run.
_PRIMARY = object()
