"""Declarative, seedable fault plans.

A :class:`FaultPlan` is a list of named :class:`FaultSpec` entries plus one
RNG seed. It is pure data: nothing fires until a
:class:`repro.faults.injector.FaultInjector` evaluates the plan against a
clock. The same (plan, seed, workload) triple always produces the same
fault schedule — the determinism the gem5 reproducibility argument asks of
failure experiments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError


class FaultKind(enum.Enum):
    """What kind of misbehaviour a spec injects, by substrate."""

    # -- network links
    FRAME_DROP = "frame-drop"
    FRAME_CORRUPT = "frame-corrupt"
    LINK_DOWN = "link-down"
    # -- NVMe / flash
    READ_ERROR = "read-error"
    DIE_STUCK = "die-stuck"
    COMMAND_TIMEOUT = "command-timeout"
    # -- whole devices
    POWER_LOSS = "power-loss"
    NODE_DOWN = "node-down"
    # -- WAN / inter-region
    WAN_PARTITION = "wan-partition"


@dataclass(frozen=True)
class FaultSpec:
    """One named fault against one component id.

    Exactly one timing mode applies:

    * ``at`` — fire-once: fires on the first consult at or after ``at``;
    * ``probability`` — fires per consult with probability p (optionally
      only inside ``window`` and at most ``max_fires`` times);
    * ``window`` alone — deterministically *active* during ``[start, end)``
      (link flaps, node outages, WAN partitions).
    """

    name: str
    component: str
    kind: FaultKind
    at: Optional[float] = None
    probability: Optional[float] = None
    window: Optional[Tuple[float, float]] = None
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not self.component:
            raise ConfigurationError("fault specs need a name and a component")
        if self.at is not None and (
            self.probability is not None or self.window is not None
        ):
            raise ConfigurationError(
                f"{self.name}: fire-once excludes probability/window"
            )
        if self.at is None and self.probability is None and self.window is None:
            raise ConfigurationError(
                f"{self.name}: need one of at=, probability=, window="
            )
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"{self.name}: probability must be in (0, 1]"
            )
        if self.at is not None and not math.isfinite(self.at):
            raise ConfigurationError(f"{self.name}: at= must be finite")
        if self.window is not None:
            start, end = self.window
            # A window may stay open for the rest of the run (end=inf).
            if not math.isfinite(start) or math.isnan(end):
                raise ConfigurationError(
                    f"{self.name}: window start must be finite, end "
                    "finite or inf"
                )
            if end <= start:
                raise ConfigurationError(f"{self.name}: empty fault window")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigurationError(f"{self.name}: max_fires must be >= 1")

    @property
    def is_windowed(self) -> bool:
        return self.window is not None and self.probability is None


class FaultPlan:
    """A seed plus an ordered list of fault specs.

    Convenience constructors mirror the three timing modes::

        plan = FaultPlan(seed=7)
        plan.once("cut", "kv-dpu-0", FaultKind.POWER_LOSS, at=5e-3)
        plan.probabilistic("lossy", "uplink", FaultKind.FRAME_DROP, 0.01)
        plan.windowed("outage", "kv-dpu-1", FaultKind.NODE_DOWN, 0.1, 0.4)
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.specs: List[FaultSpec] = []

    # -- construction --------------------------------------------------------
    def add(self, spec: FaultSpec) -> FaultSpec:
        if any(existing.name == spec.name for existing in self.specs):
            raise ConfigurationError(f"duplicate fault name {spec.name!r}")
        self.specs.append(spec)
        return spec

    def once(self, name: str, component: str, kind: FaultKind,
             at: float) -> FaultSpec:
        return self.add(FaultSpec(name, component, kind, at=at))

    def probabilistic(
        self,
        name: str,
        component: str,
        kind: FaultKind,
        probability: float,
        window: Optional[Tuple[float, float]] = None,
        max_fires: Optional[int] = None,
    ) -> FaultSpec:
        return self.add(
            FaultSpec(name, component, kind, probability=probability,
                      window=window, max_fires=max_fires)
        )

    def windowed(self, name: str, component: str, kind: FaultKind,
                 start: float, end: float) -> FaultSpec:
        return self.add(FaultSpec(name, component, kind, window=(start, end)))

    def wan_partition(self, name: str, src: str, dst: str,
                      start: float, end: float) -> FaultSpec:
        """Partition the directional WAN link ``src -> dst`` over a window.

        The window's rising edge is the partition, its falling edge the
        heal. The component id matches :func:`repro.georep.wan_component`
        (``wan.{src}->{dst}``), so one spec addresses exactly one
        direction — model an asymmetric partition by adding only one of
        the pair, a symmetric one by adding both.
        """
        return self.add(FaultSpec(
            name, f"wan.{src}->{dst}", FaultKind.WAN_PARTITION,
            window=(start, end),
        ))

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans into a new one with a stable spec order.

        The merged plan keeps ``self.seed`` (the injector keys each
        spec's RNG on ``{seed}/{name}``, so layering more specs never
        perturbs the draws of existing ones) and orders the union of
        specs by name. Name-sorting makes the composition order
        independent of which operand contributed which spec — merging
        ``a.merge(b)`` and ``b.merge(a)`` yields the same schedule up to
        the seed. Duplicate spec names are configuration errors.
        """
        merged = FaultPlan(seed=self.seed)
        for spec in sorted(
            list(self.specs) + list(other.specs), key=lambda s: s.name
        ):
            merged.add(spec)
        return merged

    # -- introspection -------------------------------------------------------
    def specs_for(self, component: str, kind: FaultKind) -> List[FaultSpec]:
        return [
            spec for spec in self.specs
            if spec.component == component and spec.kind is kind
        ]

    def describe(self) -> str:
        """Canonical one-line-per-spec rendering (stable across runs)."""
        lines = [f"seed={self.seed}"]
        for spec in self.specs:
            timing = (
                f"at={spec.at!r}" if spec.at is not None
                else f"p={spec.probability!r} window={spec.window!r} "
                     f"max={spec.max_fires!r}" if spec.probability is not None
                else f"window={spec.window!r}"
            )
            lines.append(
                f"{spec.name} {spec.component} {spec.kind.value} {timing}"
            )
        return "\n".join(lines)
