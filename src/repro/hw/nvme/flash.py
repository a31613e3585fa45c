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
        self._dies: List[Resource] = [
            Resource(sim) for _ in range(channels * dies_per_channel)
        ]
        self._channels: List[Resource] = [
            Resource(sim) for _ in range(channels)
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

    def _stuck_penalty(self) -> float:
        """Extra busy time if a DIE_STUCK window currently holds this
        array (an injector is attached)."""
        if self.injector.active(self.component, FaultKind.DIE_STUCK):
            self._stuck_busy_ops.value += 1
            return STUCK_BUSY_PENALTY
        return 0.0

    def read_page(self, page_index: int):
        """Process: one page read (array cell read + channel transfer).

        Raises :class:`FaultInjectedError` when a READ_ERROR fault fires:
        the cell read completed but ECC could not correct the data.
        """
        die_index = page_index % len(self._dies)
        die = self._dies[die_index]
        grant = die.acquire()
        if grant is not None:
            yield grant
        timing = self.timing
        try:
            busy = timing.read_latency
            if self.injector is not None:
                busy += self._stuck_penalty()
            yield self.sim.timeout(busy)
        finally:
            die.release()
        if self.injector is not None and self.injector.fires(
            self.component, FaultKind.READ_ERROR
        ):
            self._read_errors.value += 1
            raise FaultInjectedError(
                f"{self.component}: uncorrectable read at page {page_index}"
            )
        channel = self._channels[die_index % self.channels]
        grant = channel.acquire()
        if grant is not None:
            yield grant
        try:
            yield self.sim.timeout(timing.page_size / timing.channel_bandwidth)
            self._reads.value += 1
        finally:
            channel.release()

    def program_page(self, page_index: int):
        """Process: one page program (channel transfer + cell program)."""
        die_index = page_index % len(self._dies)
        channel = self._channels[die_index % self.channels]
        timing = self.timing
        grant = channel.acquire()
        if grant is not None:
            yield grant
        try:
            yield self.sim.timeout(timing.page_size / timing.channel_bandwidth)
        finally:
            channel.release()
        die = self._dies[die_index]
        grant = die.acquire()
        if grant is not None:
            yield grant
        try:
            busy = timing.program_latency
            if self.injector is not None:
                busy += self._stuck_penalty()
            yield self.sim.timeout(busy)
            self._programs.value += 1
        finally:
            die.release()
