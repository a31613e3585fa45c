"""Consistency verification: histories, checkers, chaos search, shrinking.

The paper's blueprint stands or falls on a claim no single scripted
scenario can establish: that a CPU-free data plane keeps its consistency
contract *under faults it did not script*. This package turns the
deterministic simulator into a verification engine, in four parts:

* :mod:`repro.verify.history` — record what *clients observed*: every
  invoke/ok/fail outcome on the simulated clock, including the
  indeterminate ones (a timed-out write may or may not have happened).
* :mod:`repro.verify.linearizability` — check each key's observed
  history against the sequential KV-register model (Wing & Gong-style
  search; per-key independence is the P-compositionality that keeps it
  tractable), plus the cheaper whole-history invariants: zero lost
  acknowledged writes, no divergence after heal, bounded staleness.
* :mod:`repro.verify.nemesis` — *search* the fault space: seeded,
  randomized :class:`~repro.faults.FaultPlan` compositions (partitions,
  WAN windows, stuck dies, mid-migration kills) layered over live
  workload. Every schedule is pure data, so any violation replays
  byte-identically from its seed.
* :mod:`repro.verify.shrink` — delta-debug a violating fault schedule
  down to a minimal reproducer: drop specs ddmin-style, then narrow the
  surviving windows, re-running the deterministic scenario each step.

E19 (:mod:`repro.eval.verify`) drives the whole loop and demonstrates it
end to end: async-consistency geo writes under a partition produce a
non-linearizable history that the checker catches and the shrinker
reduces, while quorum/sync survive the identical schedule.
"""

from repro.verify.history import HistoryRecorder, Op, OpStatus, PendingOp
from repro.verify.invariants import (
    final_state_check,
    zero_lost_acks,
)
from repro.verify.linearizability import (
    CheckResult,
    KeyResult,
    check_history,
    check_register,
)
from repro.verify.shrink import ShrinkResult, shrink_plan

__all__ = [
    "CheckResult",
    "HistoryRecorder",
    "KeyResult",
    "Op",
    "OpStatus",
    "PendingOp",
    "ShrinkResult",
    "check_history",
    "check_register",
    "final_state_check",
    "shrink_plan",
    "zero_lost_acks",
]
