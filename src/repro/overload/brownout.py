"""SLO-driven brownout: step through declared degradation modes.

Instead of collapsing when demand exceeds capacity, the system *browns
out*: it sheds quality in declared, ordered steps — shrink batch sizes,
stop compaction and scrub work, serve stale reads — and steps back up
as the overload clears. The controller subscribes to an
:class:`~repro.telemetry.slo.SloMonitor`: it escalates one mode per
dwell period while any of the monitor's rules is firing, and de-escalates after
the objectives have been healthy for a recovery period.

Because evaluation happens on sampler ticks of the simulated clock,
the mode-transition log is canonical: same seed, byte-identical log —
E15 ships it inside its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.telemetry import MetricScope
from repro.telemetry.slo import SloMonitor

__all__ = ["BrownoutMode", "BrownoutController"]


@dataclass(frozen=True)
class BrownoutMode:
    """One declared degradation step and the knobs it turns."""

    name: str
    #: Multiplier on batch/chunk sizes (1.0 = full batches).
    batch_scale: float = 1.0
    #: Whether background compaction keeps running in this mode.
    compaction_enabled: bool = True
    #: Whether reads may be served from possibly-stale fast state
    #: (skipping backend reads).
    serve_stale: bool = False


#: The default ladder, mildest first. Index 0 is normal operation.
DEFAULT_MODES: Tuple[BrownoutMode, ...] = (
    BrownoutMode("normal"),
    BrownoutMode("shrink-batches", batch_scale=0.5),
    BrownoutMode("no-compaction", batch_scale=0.5, compaction_enabled=False),
    BrownoutMode("stale-reads", batch_scale=0.25, compaction_enabled=False,
                 serve_stale=True),
)


class BrownoutController:
    """Steps a system through :class:`BrownoutMode` levels on SLO firings.

    Attach it to the same sampler that drives the monitor: construction
    appends :meth:`check` to ``sampler.on_sample`` *after* the monitor's
    own hook, so each tick sees the freshly evaluated firing state.
    """

    def __init__(
        self,
        monitor: SloMonitor,
        metrics: MetricScope,
        modes: Sequence[BrownoutMode] = DEFAULT_MODES,
        dwell: float = 5e-3,
        recovery: float = 10e-3,
    ):
        if len(modes) < 2:
            raise ConfigurationError("brownout needs at least two modes")
        if len({mode.name for mode in modes}) != len(modes):
            raise ConfigurationError("brownout mode names must be unique")
        if dwell <= 0 or recovery <= 0:
            raise ConfigurationError("dwell/recovery must be positive")
        self.monitor = monitor
        self._recorder = getattr(monitor.sampler.clock, "recorder", None)
        self.modes: Tuple[BrownoutMode, ...] = tuple(modes)
        self.dwell = dwell
        self.recovery = recovery
        self._level = 0
        self._last_transition: Optional[float] = None
        self._healthy_since: Optional[float] = None
        #: (time, from-mode, to-mode, direction) entries.
        self.transitions: List[Tuple[float, str, str, str]] = []
        self._mode_gauge = metrics.gauge("mode")
        self._escalations = metrics.counter("escalations")
        self._deescalations = metrics.counter("deescalations")
        monitor.sampler.on_sample.append(self.check)

    # -- reading ---------------------------------------------------------
    @property
    def level(self) -> int:
        """Current degradation level: 0 (normal) .. len(LADDER)-1 (deepest)."""
        return self._level

    @property
    def mode(self) -> BrownoutMode:
        """The named mode for the current level (NORMAL, DIM, ... BROWNOUT)."""
        return self.modes[self._level]

    @property
    def batch_scale(self) -> float:
        """Multiplier (0..1] callers apply to batch sizes at this level."""
        return self.mode.batch_scale

    @property
    def serve_stale(self) -> bool:
        """Whether reads may serve stale data to shed work at this level."""
        return self.mode.serve_stale

    def transition_log_bytes(self) -> bytes:
        """The mode history as canonical bytes (same seed, same bytes)."""
        return "\n".join(
            f"brownout {direction} {frm}->{to} at={at!r}"
            for at, frm, to, direction in self.transitions
        ).encode()

    # -- the control loop ------------------------------------------------
    def _step(self, now: float, to_level: int, direction: str) -> None:
        frm = self.modes[self._level].name
        self._level = to_level
        self.transitions.append((now, frm, self.modes[to_level].name,
                                 direction))
        if self._recorder is not None:
            self._recorder.record(
                "brownout",
                f"brownout {direction} {frm}->{self.modes[to_level].name} "
                f"at={now!r}",
            )
        self._mode_gauge.set(to_level)
        self._last_transition = now
        if direction == "escalate":
            self._escalations.inc()
        else:
            self._deescalations.inc()

    def check(self, now: float) -> None:
        """One evaluation pass (normally invoked by the sampler)."""
        if self.monitor.firing:
            self._healthy_since = None
            if self._level + 1 < len(self.modes) and (
                self._last_transition is None
                or now - self._last_transition >= self.dwell
            ):
                self._step(now, self._level + 1, "escalate")
            return
        if self._level == 0:
            return
        if self._healthy_since is None:
            self._healthy_since = now
            return
        if now - self._healthy_since >= self.recovery:
            self._step(now, self._level - 1, "deescalate")
            self._healthy_since = now
