"""Cheap whole-history invariants that complement the per-key search.

Linearizability is the strong check; these are the fast, targeted ones
that name the failure directly when they fire:

* :func:`zero_lost_acks` / :func:`final_state_check` — every
  acknowledged write whose key saw no later (or indeterminate)
  overwrite must be readable in the final swept state, and after a heal
  every replica must agree on it. "Lost acked write" and "divergence
  after heal" are the two headline failure modes of replicated stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.verify.history import HistoryRecorder, Op, OpStatus

__all__ = [
    "FinalStateResult",
    "final_state_check",
    "zero_lost_acks",
]


def _expected_finals(ops: Iterable[Op]) -> Dict[bytes, Tuple[Op, bool]]:
    """Per key: the last acknowledged write and whether it is *binding*.

    The winner ranks by server LWW stamp when present, else invocation
    order. It is binding only if the key saw no indeterminate write at
    all: an unacked write may have landed — possibly *after* the winner,
    since a delayed request picks up its stamp on arrival — so either
    final value would be legal and the key is skipped, not guessed at.
    """
    finals: Dict[bytes, Tuple[Op, bool]] = {}
    writes: Dict[bytes, List[Op]] = {}
    for op in ops:
        if op.action in ("w", "d") and op.status is not OpStatus.FAIL:
            writes.setdefault(op.key, []).append(op)
    for key, key_writes in writes.items():
        acked = [op for op in key_writes if op.status is OpStatus.OK]
        if not acked:
            continue
        winner = max(
            acked,
            key=lambda op: (op.stamp, op.index) if op.stamp is not None
            else (-1.0, op.index),
        )
        binding = not any(
            op.status is OpStatus.INDETERMINATE for op in key_writes
        )
        finals[key] = (winner, binding)
    return finals


@dataclass
class FinalStateResult:
    """Outcome of the post-run sweep checks."""

    lost: List[str] = field(default_factory=list)
    diverged: List[str] = field(default_factory=list)
    checked: int = 0
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.lost and not self.diverged


def zero_lost_acks(history: HistoryRecorder,
                   final: Dict[bytes, Optional[bytes]]) -> FinalStateResult:
    """No acknowledged write silently dropped: check one final sweep."""
    return final_state_check(history, {"": final})


def final_state_check(
    history: HistoryRecorder,
    sweeps: Dict[str, Dict[bytes, Optional[bytes]]],
) -> FinalStateResult:
    """Check final swept state(s) against the history's binding writes.

    Args:
        history: the run's client-observed history.
        sweeps: per-replica (or per-region) final ``key -> value`` maps,
            read *after* faults healed and replication quiesced.

    Lost: a binding acknowledged write whose value a sweep does not
    hold. Diverged: two sweeps that disagree on any key — heal-time
    convergence is unconditional, binding or not.
    """
    result = FinalStateResult()
    finals = _expected_finals(history.ops)
    names = sorted(sweeps)
    for key, (winner, binding) in sorted(finals.items()):
        if not binding:
            result.skipped += 1
            continue
        result.checked += 1
        expected = winner.value if winner.action == "w" else None
        for name in names:
            got = sweeps[name].get(key)
            if got != expected:
                where = f" at {name}" if name else ""
                result.lost.append(
                    f"lost-ack{where}: key={key.hex()} "
                    f"expected={expected.hex() if expected else '-'} "
                    f"got={got.hex() if got else '-'} "
                    f"write=[{winner.line()}]"
                )
    if len(names) > 1:
        keys = sorted({key for sweep in sweeps.values() for key in sweep})
        for key in keys:
            values = {name: sweeps[name].get(key) for name in names}
            distinct = set(values.values())
            if len(distinct) > 1:
                detail = " ".join(
                    f"{name}={(value.hex() if value else '-')}"
                    for name, value in sorted(values.items())
                )
                result.diverged.append(
                    f"diverged: key={key.hex()} {detail}"
                )
    return result
