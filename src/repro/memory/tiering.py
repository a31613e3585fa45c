"""Hint- and access-driven segment tiering (paper §2.1).

"we expect hints-based allocation should also be possible where temporary
and/or performance-critical objects are allocated or eventually promoted to
DRAM or HBM."

The policy watches per-segment access counts between epochs and migrates:

* hot NVMe segments (non-durable) up to DRAM (or HBM when available);
* cold DRAM segments down to NVMe when DRAM pressure crosses a watermark.

It is deliberately mechanism-over-policy thin: `run_epoch` is called by
whoever owns the control loop (the OS-shell, a timer process, a test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import CapacityError
from repro.common.ids import ObjectId
from repro.faults import FaultInjector, FaultKind
from repro.memory.segments import Segment, SegmentLocation
from repro.memory.store import SingleLevelStore
from repro.overload.breaker import CircuitBreaker
from repro.overload.queues import BoundedQueue, QueuePolicy


@dataclass
class TieringDecision:
    """One migration: which segment moved where, and why."""

    oid: ObjectId
    moved_from: SegmentLocation
    moved_to: SegmentLocation
    accesses_in_epoch: int


class TieringPolicy:
    """Epoch-based promotion/demotion over a :class:`SingleLevelStore`.

    Promotion backlog is an explicit :class:`~repro.overload.BoundedQueue`
    of hot candidates: each epoch's scan enqueues, the move budget drains.
    The old behaviour was an implicit unbounded queue — unpromoted hot
    segments were silently rediscovered every epoch — which hid how far
    behind the mover was. Now the backlog has a depth gauge and a drop
    counter, and under a move-budget crunch the oldest candidates are
    shed visibly instead of accumulating.

    Each fast tier is also guarded by a
    :class:`~repro.overload.CircuitBreaker`: repeated ``CapacityError``
    promotions trip the breaker, and while it is open the policy degrades
    (HBM -> DRAM -> stay-on-flash) without re-attempting the full tier —
    the same ladder BACKEND_DOWN fault windows trigger.
    """

    def __init__(
        self,
        store: SingleLevelStore,
        hot_threshold: int = 8,
        cold_threshold: int = 0,
        dram_high_watermark: float = 0.9,
        prefer_hbm: bool = False,
        max_moves_per_epoch: int = 16,
        injector: Optional[FaultInjector] = None,
        component: str = "tiering",
        promotion_queue_capacity: int = 64,
        breaker_failure_threshold: int = 3,
        breaker_reset_timeout: float = 100e-3,
    ):
        self.store = store
        self.hot_threshold = hot_threshold
        self.cold_threshold = cold_threshold
        self.dram_high_watermark = dram_high_watermark
        self.prefer_hbm = prefer_hbm and store.hbm is not None
        self.max_moves_per_epoch = max_moves_per_epoch
        self.injector = injector
        self.component = component
        self._metrics = store.sim.telemetry.unique_scope(f"memory.{component}")
        self._epochs = self._metrics.counter("epochs")
        self._promotions = self._metrics.counter("promotions")
        self._demotions = self._metrics.counter("demotions")
        # Promotions that fell back to a slower tier (or stayed on flash)
        # because the preferred tier's backend was down or full.
        self._degraded = self._metrics.counter("degraded")
        #: Every migration so far, in order (structured records, not a metric).
        self.decisions: List[TieringDecision] = []
        self._last_counts: Dict[ObjectId, int] = {}
        #: Hot candidates awaiting a move-budget slot: (segment, accesses).
        self.promotion_queue = BoundedQueue(
            store.sim, self._metrics.scope("queue"),
            promotion_queue_capacity, policy=QueuePolicy.FIFO,
            on_drop=self._on_queue_drop,
        )
        self._queued: Set[ObjectId] = set()
        self.breakers: Dict[SegmentLocation, CircuitBreaker] = {}
        for tier in (SegmentLocation.HBM, SegmentLocation.DRAM):
            if tier is SegmentLocation.HBM and store.hbm is None:
                continue
            self.breakers[tier] = CircuitBreaker(
                store.sim, self._metrics.scope(f"breaker.{tier.value}"),
                failure_threshold=breaker_failure_threshold,
                reset_timeout=breaker_reset_timeout,
            )

    @property
    def epochs(self) -> int:
        return self._epochs.value

    @property
    def promotions(self) -> int:
        return self._promotions.value

    @property
    def degraded(self) -> int:
        return self._degraded.value

    def _on_queue_drop(self, entry: Tuple[Segment, int], reason: str) -> None:
        segment, __ = entry
        self._queued.discard(segment.oid)

    # -- internals -------------------------------------------------------------
    def _epoch_accesses(self, segment: Segment) -> int:
        return segment.access_count - self._last_counts.get(segment.oid, 0)

    def _dram_pressure(self) -> float:
        allocator = self.store._allocators[SegmentLocation.DRAM]
        return allocator.bytes_used / allocator.capacity

    def _tier_up(self, tier: SegmentLocation) -> bool:
        """Is the backend behind ``tier`` currently serving?

        Consults component id ``<component>.<tier>`` for BACKEND_DOWN
        windows (e.g. an HBM stack in thermal shutdown).
        """
        if self.injector is None:
            return True
        return not self.injector.active(
            f"{self.component}.{tier.value}", FaultKind.BACKEND_DOWN
        )

    def _fast_tier(self) -> Optional[SegmentLocation]:
        """The best *available* promotion target, degrading HBM -> DRAM ->
        stay-on-flash as backends fault out."""
        preferred = SegmentLocation.HBM if self.prefer_hbm else SegmentLocation.DRAM
        for tier in dict.fromkeys((preferred, SegmentLocation.DRAM)):
            if self._tier_up(tier):
                return tier
        return None

    def _promotion_target(self):
        """The best tier that is fault-free *and* whose breaker admits an
        attempt; returns ``(tier, breaker)`` or ``(None, None)``."""
        preferred = SegmentLocation.HBM if self.prefer_hbm else SegmentLocation.DRAM
        for tier in dict.fromkeys((preferred, SegmentLocation.DRAM)):
            if not self._tier_up(tier):
                continue
            breaker = self.breakers.get(tier)
            if breaker is not None and not breaker.allow():
                continue
            return tier, breaker
        return None, None

    # -- the policy ------------------------------------------------------------
    def run_epoch(self) -> List[TieringDecision]:
        """Inspect counters since the last epoch and migrate segments."""
        decisions: List[TieringDecision] = []
        moves = 0
        preferred = (
            SegmentLocation.HBM if self.prefer_hbm else SegmentLocation.DRAM
        )

        # Scan: hot flash-resident, non-durable segments join the backlog.
        for segment in list(self.store.segments_at(SegmentLocation.NVME)):
            if segment.durable:
                continue  # durability pins segments to flash (paper §2.1)
            if segment.oid in self._queued:
                continue
            accesses = self._epoch_accesses(segment)
            if accesses >= self.hot_threshold:
                if self.promotion_queue.try_put((segment, accesses)):
                    self._queued.add(segment.oid)

        # Drain: the move budget serves the backlog oldest-first.
        while moves < self.max_moves_per_epoch:
            entry = self.promotion_queue.poll()
            if entry is None:
                break
            segment, accesses = entry
            self._queued.discard(segment.oid)
            if (segment.oid not in self.store.table
                    or segment.location is not SegmentLocation.NVME):
                continue  # freed or already moved since it was queued
            target, breaker = self._promotion_target()
            if target is None:
                # Every fast tier is down or circuit-open: serve from
                # flash and hold the backlog until one recovers.
                self._degraded.inc()
                if self.promotion_queue.try_put((segment, accesses)):
                    self._queued.add(segment.oid)
                break
            if target is not preferred:
                self._degraded.inc()
            try:
                self.store.promote(segment.oid, target)
            except CapacityError:
                # Target tier full: stay on flash rather than fail. The
                # breaker turns a persistently full tier into a fast skip.
                if breaker is not None:
                    breaker.record_failure()
                self._degraded.inc()
                continue
            if breaker is not None:
                breaker.record_success()
            decisions.append(
                TieringDecision(segment.oid, SegmentLocation.NVME,
                                target, accesses)
            )
            self._promotions.inc()
            moves += 1

        # Demotions: under DRAM pressure, idle segments move down.
        if self._dram_pressure() > self.dram_high_watermark:
            candidates = sorted(
                self.store.segments_at(SegmentLocation.DRAM),
                key=self._epoch_accesses,
            )
            for segment in candidates:
                if moves >= self.max_moves_per_epoch:
                    break
                if self._epoch_accesses(segment) > self.cold_threshold:
                    break  # sorted: the rest are warmer
                self.store.promote(segment.oid, SegmentLocation.NVME)
                decisions.append(
                    TieringDecision(segment.oid, SegmentLocation.DRAM,
                                    SegmentLocation.NVME,
                                    self._epoch_accesses(segment))
                )
                self._demotions.inc()
                moves += 1

        # Close the epoch.
        for segment in self.store.table:
            self._last_counts[segment.oid] = segment.access_count
        self._epochs.inc()
        self.decisions.extend(decisions)
        return decisions
