"""Shrink a violating fault schedule to a minimal reproducer.

A chaos-search hit usually arrives wrapped in noise: five fault windows
layered over the run, of which one edge cut actually produced the
non-linearizable read. Because every scenario here is a *deterministic
function of (plan, seed)*, shrinking is just re-running that function on
candidate sub-plans — no flaky reproduction step, ever.

Two passes, in the delta-debugging tradition:

1. **ddmin over specs** — try dropping chunks of the plan's specs
   (halves, then quarters, ...), keeping any reduction that still
   violates, until no single spec can be removed.
2. **window narrowing** — for each surviving windowed spec, repeatedly
   halve the window from the end and then from the start, keeping every
   half that still violates.

The result is 1-minimal per spec (removing any one remaining spec makes
the violation vanish) with windows locally tight, plus the exact replay
count — the cost of the shrink in scenario re-runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.faults.plan import FaultPlan, FaultSpec

__all__ = ["ShrinkResult", "shrink_plan"]

#: Stop narrowing a window below this duration (seconds); windows
#: shorter than a couple of shipper intervals stop meaning anything.
MIN_WINDOW = 2e-3


def _rebuild(seed: int, specs: Sequence[FaultSpec]) -> FaultPlan:
    """A fresh plan with exactly *specs*, preserving their order.

    The injector keys each spec's RNG on ``{seed}/{name}``, so a
    sub-plan replays the surviving specs' draws bit-for-bit — the
    property that makes candidate runs trustworthy evidence.
    """
    plan = FaultPlan(seed=seed)
    for spec in specs:
        plan.add(spec)
    return plan


@dataclass
class ShrinkResult:
    """A minimal violating plan and what it cost to find."""

    plan: FaultPlan
    runs: int
    removed_specs: int
    narrowed_windows: int

    def line(self) -> str:
        return (
            f"shrink runs={self.runs} removed={self.removed_specs} "
            f"narrowed={self.narrowed_windows} "
            f"minimal_specs={len(self.plan.specs)}"
        )


def shrink_plan(
    plan: FaultPlan,
    violates: Callable[[FaultPlan], bool],
    *,
    max_runs: int = 64,
) -> ShrinkResult:
    """Delta-debug *plan* down to a minimal still-violating reproducer.

    Args:
        plan: the violating fault plan chaos search found.
        violates: re-runs the deterministic scenario under a candidate
            plan and reports whether the violation still occurs. Must be
            a pure function of the plan (same plan => same verdict).
        max_runs: hard cap on scenario re-runs across both passes.

    Windows are narrowed no further than :data:`MIN_WINDOW`.
    """
    runs = [0]

    def attempt(specs: Sequence[FaultSpec]) -> bool:
        if runs[0] >= max_runs:
            return False
        runs[0] += 1
        return violates(_rebuild(plan.seed, specs))

    # -- pass 1: ddmin over the spec list ---------------------------------
    specs: List[FaultSpec] = list(plan.specs)
    removed = 0
    chunks = 2
    while len(specs) >= 2:
        size = math.ceil(len(specs) / chunks)
        reduced = False
        for start in range(0, len(specs), size):
            candidate = specs[:start] + specs[start + size:]
            if not candidate:
                continue
            if attempt(candidate):
                removed += len(specs) - len(candidate)
                specs = candidate
                chunks = max(chunks - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunks >= len(specs):
                break
            chunks = min(len(specs), chunks * 2)
        if runs[0] >= max_runs:
            break

    # -- pass 2: narrow surviving windows ---------------------------------
    narrowed = 0
    for index, spec in enumerate(list(specs)):
        if spec.window is None:
            continue
        start, end = spec.window
        # Halve from the end, then from the start, keeping halves that
        # still violate. Each accepted halving tightens the reproducer.
        for side in ("end", "start"):
            while end - start > MIN_WINDOW and runs[0] < max_runs:
                if side == "end":
                    trial = (start, max(start + (end - start) / 2,
                                        start + MIN_WINDOW))
                else:
                    trial = (min(end - (end - start) / 2,
                                 end - MIN_WINDOW), end)
                if trial == (start, end):
                    break
                candidate = list(specs)
                candidate[index] = FaultSpec(
                    spec.name, spec.component, spec.kind,
                    probability=spec.probability, window=trial,
                    max_fires=spec.max_fires,
                )
                if attempt(candidate):
                    start, end = trial
                    specs = candidate
                    narrowed += 1
                else:
                    break

    return ShrinkResult(_rebuild(plan.seed, specs), runs[0], removed,
                        narrowed)
