"""SLO-driven autoscaling: telemetry firings → ShardMigrator actions.

The :class:`Autoscaler` closes the loop the ROADMAP asks for: instead
of an operator watching dashboards and running ``add_dpu`` by hand, a
policy maps two named :class:`~repro.telemetry.slo.SloRule` objectives
onto the two topology changes :class:`~repro.sharding.ShardMigrator`
offers:

* the **breach** rule (typically ``... op_latency p99 < X for D``)
  firing means the fleet is too small → ``add_dpu()``;
* the **idle** rule (typically ``... offered_rate value < Y for D``)
  firing — while the breach rule is healthy — means the fleet is too
  big → ``remove_dpu()`` on the newest member.

Hysteresis follows the brownout ladder's pattern
(:class:`~repro.overload.BrownoutController`): decisions are evaluated
on sampler ticks, each rule's own ``for``-duration debounces the
trigger, a *cooldown* separates consecutive actions, and at most one
migration is in flight at a time (the ``busy`` latch).  A drain is
additionally vetoed whenever the breach objective is firing, so the
controller cannot flap scale-out/drain across a breach/recover
boundary.

A migration that fails (say, a handoff RPC shed by an overloaded
source) is logged as ``autoscale <direction> failed ...`` and leaves the
latch set: the scaler stops acting rather than retry on a
half-committed topology change.

Every decision, completion and failure is appended to a canonical event log
(:meth:`Autoscaler.event_log_bytes`): same seed, byte-identical log,
independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigurationError, ReproError
from repro.sharding.migration import MigrationReport, ShardMigrator
from repro.telemetry.slo import SloAlert, SloMonitor

__all__ = ["AutoscalerPolicy", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """The operator-facing knobs (see ``docs/WORKLOADS.md``).

    Args:
        min_dpus: never drain below this fleet size.
        max_dpus: never scale out beyond this fleet size.
        breach_rule: name of the SLO rule whose firing demands capacity.
        idle_rule: name of the SLO rule whose firing permits draining.
        cooldown: minimum simulated time between *completed* actions —
            the dwell that keeps one migration's latency disturbance
            from triggering the next action.
    """

    min_dpus: int = 2
    max_dpus: int = 8
    breach_rule: str = "p99-breach"
    idle_rule: str = "fleet-idle"
    cooldown: float = 0.020

    def __post_init__(self) -> None:
        if self.min_dpus < 1:
            raise ConfigurationError("autoscaler min_dpus must be >= 1")
        if self.max_dpus < self.min_dpus:
            raise ConfigurationError(
                "autoscaler max_dpus must be >= min_dpus"
            )
        if self.breach_rule == self.idle_rule:
            raise ConfigurationError(
                "breach and idle must be distinct SLO rules"
            )
        if self.cooldown < 0:
            raise ConfigurationError("autoscaler cooldown must be >= 0")


class Autoscaler:
    """Subscribes to SLO firings and drives the migrator automatically.

    Wiring (all hook-based, no polling loops of its own):

    * ``monitor.sampler.on_sample`` → :meth:`check`, the decision step;
    * ``monitor.on_alert`` → observation lines in the event log;
    * ``migrator.on_migration`` → completion handling (clear the busy
      latch, start the cooldown clock, update the fleet gauge).

    The scaler also integrates fleet-size over simulated time
    (:meth:`dpu_seconds`) — the capacity-cost metric E20 compares
    against static provisioning.
    """

    def __init__(self, sim, monitor: SloMonitor, migrator: ShardMigrator,
                 policy: AutoscalerPolicy) -> None:
        self.sim = sim
        self.monitor = monitor
        self.migrator = migrator
        self.policy = policy
        self.cluster = migrator.cluster
        fleet = len(self.cluster.members())
        if fleet < policy.min_dpus:
            raise ConfigurationError(
                f"fleet starts at {fleet} < policy.min_dpus "
                f"{policy.min_dpus}"
            )
        self.events: List[str] = []
        self.busy = False
        self._direction: Optional[str] = None
        self._last_action: Optional[float] = None
        self._recorder = getattr(sim, "recorder", None)
        # dpu-seconds integral: accrued lazily at each fleet change.
        self._fleet = fleet
        self._since = sim.now
        self._integral = 0.0
        metrics = sim.telemetry.unique_scope("workload.autoscaler")
        self._fleet_gauge = metrics.gauge("fleet")
        self._fleet_gauge.set(fleet)
        self._scale_outs = metrics.counter("scale_outs")
        self._drains = metrics.counter("drains")
        monitor.sampler.on_sample.append(self.check)
        monitor.on_alert.append(self._on_alert)
        migrator.on_migration.append(self._on_migration)

    # -- accounting ----------------------------------------------------------
    @property
    def fleet(self) -> int:
        """Current ring size."""
        return len(self.cluster.members())

    @property
    def scale_outs(self) -> int:
        """Completed scale-out migrations driven by this scaler."""
        return self._scale_outs.value

    @property
    def drains(self) -> int:
        """Completed drain migrations driven by this scaler."""
        return self._drains.value

    def _accrue(self) -> None:
        now = self.sim.now
        self._integral += self._fleet * (now - self._since)
        self._since = now

    def dpu_seconds(self) -> float:
        """Fleet-size × simulated-time integral since construction."""
        self._accrue()
        return self._integral

    def event_log_bytes(self) -> bytes:
        """The decision/completion log as canonical bytes."""
        return "\n".join(self.events).encode()

    def _event(self, line: str) -> None:
        self.events.append(line)
        if self._recorder is not None:
            self._recorder.record("autoscale", line)

    # -- hook targets --------------------------------------------------------
    def _on_alert(self, alert: SloAlert) -> None:
        if alert.rule in (self.policy.breach_rule, self.policy.idle_rule):
            self._event(
                f"autoscale observe {alert.state} rule={alert.rule} "
                f"at={alert.at!r} value={alert.value!r}"
            )

    def check(self, now: float) -> None:
        """One decision step (normally invoked by the sampler)."""
        if self.busy:
            return
        if self._last_action is not None \
                and now - self._last_action < self.policy.cooldown:
            return
        firing = self.monitor.firing
        fleet = self.fleet
        if self.policy.breach_rule in firing:
            if fleet < self.policy.max_dpus:
                self._launch("scale-out", now, fleet)
            return
        if self.policy.idle_rule in firing and fleet > self.policy.min_dpus:
            self._launch("drain", now, fleet)

    def _launch(self, direction: str, now: float, fleet: int) -> None:
        self.busy = True
        self._direction = direction
        self._event(
            f"autoscale decide {direction} at={now!r} fleet={fleet}"
        )
        if direction == "scale-out":
            migration = self.migrator.add_dpu()
        else:
            # Drain the newest member: join order is deterministic and
            # the latest joiner holds the least-warm working set.
            victim = self.cluster.members()[-1]
            migration = self.migrator.remove_dpu(victim)
        self.sim.spawn(self._drive(direction, migration))

    def _drive(self, direction: str, migration):
        """Process: run *migration*; a failure is logged, never swallowed.

        The busy latch stays set afterwards: segments already handed off
        live on their destination while the ring still names the source,
        so a retry on top of the half-committed change would route those
        keys to a node that never received them. An operator resolves it.
        """
        try:
            yield from migration
        except ReproError as error:
            self._event(
                f"autoscale {direction} failed at={self.sim.now!r} "
                f"error={error}"
            )

    def _on_migration(self, report: MigrationReport) -> None:
        if not self.busy:
            return  # topology change driven by someone else
        self._accrue()
        self._fleet = self.fleet
        self._fleet_gauge.set(self._fleet)
        if self._direction == "scale-out":
            self._scale_outs.inc()
        else:
            self._drains.inc()
        self._event(
            f"autoscale {self._direction} done node={report.node} "
            f"keys={report.keys_moved} epoch={report.epoch} "
            f"at={report.finished!r} fleet={self._fleet}"
        )
        self.busy = False
        self._direction = None
        self._last_action = report.finished
