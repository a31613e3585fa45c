"""NAND flash timing: channels, dies, and per-die operation queueing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigurationError, FaultInjectedError
from repro.faults import FaultInjector, FaultKind
from repro.sim import Resource, Simulator

#: Extra busy time a stuck die serves per operation while a DIE_STUCK fault
#: window holds it (roughly an in-die retry/recalibration cycle).
STUCK_BUSY_PENALTY = 2e-3


@dataclass(frozen=True)
class FlashTiming:
    """Timing parameters of one NAND generation (TLC-class defaults)."""

    page_size: int = 4096
    read_latency: float = 80e-6
    program_latency: float = 500e-6
    erase_latency: float = 3e-3
    channel_bandwidth: float = 800e6  # ONFI transfer rate, bytes/s


class FlashArray:
    """``channels x dies_per_channel`` NAND dies with independent queues.

    Page addresses stripe across dies, so sequential and random multi-page
    workloads exploit die-level parallelism — the property NVMe queue depth
    is designed to expose.
    """

    def __init__(
        self,
        sim: Simulator,
        channels: int = 8,
        dies_per_channel: int = 4,
        component: str = "flash",
    ):
        if channels < 1 or dies_per_channel < 1:
            raise ConfigurationError("need at least one channel and die")
        self.sim = sim
        self.timing = FlashTiming()
        self.channels = channels
        self.dies_per_channel = dies_per_channel
        self._dies: List[Resource] = [
            Resource(sim, capacity=1) for _ in range(channels * dies_per_channel)
        ]
        self._channels: List[Resource] = [
            Resource(sim, capacity=1) for _ in range(channels)
        ]
        self.injector: Optional[FaultInjector] = None
        self.component = component
        self._metrics = sim.telemetry.unique_scope(component)
        self._reads = self._metrics.counter("reads")
        self._programs = self._metrics.counter("programs")
        self._read_errors = self._metrics.counter("read_errors")
        self._stuck_busy_ops = self._metrics.counter("stuck_busy_ops")

    def attach_faults(self, injector: FaultInjector, component: str) -> "FlashArray":
        self.injector = injector
        self.component = component
        self._metrics.rename(component)
        return self

    # -- counter views -----------------------------------------------------
    @property
    def reads(self) -> int:
        return self._reads.value

    def _stuck_penalty(self) -> float:
        """Extra busy time if a DIE_STUCK window currently holds this array."""
        if self.injector is not None and self.injector.active(
            self.component, FaultKind.DIE_STUCK
        ):
            self._stuck_busy_ops.inc()
            return STUCK_BUSY_PENALTY
        return 0.0

    @property
    def die_count(self) -> int:
        return len(self._dies)

    def _die_for_page(self, page_index: int) -> int:
        return page_index % self.die_count

    def _channel_for_die(self, die_index: int) -> int:
        return die_index % self.channels

    def _transfer_time(self) -> float:
        return self.timing.page_size / self.timing.channel_bandwidth

    def read_page(self, page_index: int):
        """Process: one page read (array cell read + channel transfer).

        Raises :class:`FaultInjectedError` when a READ_ERROR fault fires:
        the cell read completed but ECC could not correct the data.
        """
        die_index = self._die_for_page(page_index)
        yield from self._dies[die_index].acquire()
        try:
            yield self.sim.timeout(self.timing.read_latency + self._stuck_penalty())
        finally:
            self._dies[die_index].release()
        if self.injector is not None and self.injector.fires(
            self.component, FaultKind.READ_ERROR
        ):
            self._read_errors.inc()
            raise FaultInjectedError(
                f"{self.component}: uncorrectable read at page {page_index}"
            )
        channel = self._channels[self._channel_for_die(die_index)]
        yield from channel.acquire()
        try:
            yield self.sim.timeout(self._transfer_time())
            self._reads.inc()
        finally:
            channel.release()

    def program_page(self, page_index: int):
        """Process: one page program (channel transfer + cell program)."""
        die_index = self._die_for_page(page_index)
        channel = self._channels[self._channel_for_die(die_index)]
        yield from channel.acquire()
        try:
            yield self.sim.timeout(self._transfer_time())
        finally:
            channel.release()
        yield from self._dies[die_index].acquire()
        try:
            yield self.sim.timeout(
                self.timing.program_latency + self._stuck_penalty()
            )
            self._programs.inc()
        finally:
            self._dies[die_index].release()
