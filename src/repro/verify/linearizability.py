"""A per-key linearizability checker for the KV register model.

Linearizability asks: does there exist a single sequential order of the
observed operations that (a) respects real time — if op *p* completed
before op *o* was invoked, *p* comes first — and (b) is legal for the
data type — every read returns the latest preceding write? This module
answers it with the classic Wing & Gong search: repeatedly pick a
*minimal* op (one no other pending op completed before), apply it to the
model register, and backtrack on contradiction. Two standard refinements
keep it tractable:

* **P-compositionality**: a KV store whose keys are independent is
  linearizable iff each key's sub-history is. We check per key, turning
  one exponential search over N ops into many small ones
  (:func:`check_history`).
* **Memoization** (Lowe): two search branches that linearized different
  *orders* of the same *set* of ops into the same register value are
  equivalent; cache ``(remaining-set, value)`` and prune.

Indeterminate ops (lost acks) are the subtle part: an unacknowledged
write is allowed to take effect at any point after its invocation *or
never*. It enters the search as a never-completing op (no one is
ordered after it) that the search may linearize or leave unlinearized —
acceptance only requires every *acknowledged* op to be placed.

On violation the checker reports a witness: the first completed
operation (in completion order) whose inclusion makes the sub-history
unsatisfiable — invariably the stale read in the planted-bug demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro.verify.history import HistoryRecorder, Op, OpStatus

__all__ = [
    "BudgetExceeded",
    "CheckResult",
    "KeyResult",
    "check_history",
    "check_register",
]

#: Search-state budget per key; generous for the op counts E19 produces
#: (tens of ops per key), a hard stop against pathological histories.
MAX_STATES = 500_000


class BudgetExceeded(Exception):
    """The search exceeded its state budget — verdict *unknown*, not OK."""


@dataclass(frozen=True)
class _Entry:
    """One op as the search sees it."""

    op: Op
    #: Effect on the register when linearized (None = absent/deleted).
    effect: Optional[bytes]
    read: bool
    inv: float
    ret: float
    #: Acknowledged ops must be linearized; indeterminate ones may be.
    required: bool


def _entries(ops: Iterable[Op]) -> List[_Entry]:
    """The checkable subset of *ops*, as search entries.

    Dropped: definite failures (never took effect), timed-out reads (no
    observed value, no effect), and staleness-bounded follower reads
    (their contract is the bound, not linearizability; nothing checks
    the bound yet).
    """
    entries = []
    for op in ops:
        if op.status is OpStatus.FAIL:
            continue
        if op.staleness is not None:
            continue
        if op.action == "r":
            if op.status is not OpStatus.OK:
                continue
            entries.append(_Entry(op, op.value, True, op.invoked,
                                  op.completed, True))
        else:
            effect = op.value if op.action == "w" else None
            required = op.status is OpStatus.OK
            ret = op.completed if required else math.inf
            entries.append(_Entry(op, effect, False, op.invoked, ret,
                                  required))
    return entries


@dataclass
class KeyResult:
    """Verdict for one key's sub-history."""

    key: bytes
    ok: bool
    checked_ops: int
    states: int
    #: On violation: the first completed op whose inclusion makes the
    #: sub-history unsatisfiable (by completion order).
    witness: Optional[Op] = None
    #: On success: op indices in one legal sequential order.
    linearization: List[int] = field(default_factory=list)

    def line(self) -> str:
        verdict = "linearizable" if self.ok else "NON-LINEARIZABLE"
        witness = (
            f" witness=[{self.witness.line()}]" if self.witness else ""
        )
        return (f"key={self.key.hex()} {verdict} ops={self.checked_ops} "
                f"states={self.states}{witness}")


@dataclass
class CheckResult:
    """Whole-history verdict: every key linearizable, or the violators."""

    ok: bool
    keys: List[KeyResult]
    states: int

    @property
    def violations(self) -> List[KeyResult]:
        return [result for result in self.keys if not result.ok]

    def lines(self) -> List[str]:
        return [result.line() for result in self.keys]


def _search(entries: List[_Entry],
            budget: List[int]) -> Optional[List[int]]:
    """One Wing & Gong search from an absent register; a linearization
    (entry indexes) or None."""
    count = len(entries)
    if count == 0:
        return []
    required_mask = 0
    for i, entry in enumerate(entries):
        if entry.required:
            required_mask |= 1 << i
    seen = set()
    order: List[int] = []

    def recurse(remaining: int, value: Optional[bytes]) -> bool:
        if remaining & required_mask == 0:
            return True
        state = (remaining, value)
        if state in seen:
            return False
        seen.add(state)
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded(
                f"linearizability search exceeded its state budget "
                f"({len(entries)} ops)"
            )
        # Minimal ops: nothing still remaining completed before their
        # invocation. min() over the remaining completion times decides
        # membership in O(1) per op.
        min_ret = math.inf
        mask = remaining
        while mask:
            low = mask & -mask
            ret = entries[low.bit_length() - 1].ret
            if ret < min_ret:
                min_ret = ret
            mask ^= low
        mask = remaining
        while mask:
            low = mask & -mask
            index = low.bit_length() - 1
            entry = entries[index]
            mask ^= low
            if entry.inv > min_ret:
                continue  # some remaining op precedes it in real time
            if entry.read:
                if entry.effect != value:
                    continue  # would read the wrong value here
                order.append(index)
                if recurse(remaining ^ low, value):
                    return True
                order.pop()
            else:
                order.append(index)
                if recurse(remaining ^ low, entry.effect):
                    return True
                order.pop()
        return False

    full = (1 << count) - 1
    if recurse(full, None):
        return list(order)
    return None


def _prefix_at(entries: List[_Entry], cutoff: float) -> List[_Entry]:
    """The history as it looked at *cutoff*: ops invoked by then, with
    ops still open at *cutoff* demoted to indeterminate (writes) or
    dropped (reads — no observed value yet, no constraint)."""
    prefix = []
    for entry in entries:
        if entry.inv > cutoff:
            continue
        if entry.ret <= cutoff:
            prefix.append(entry)
        elif not entry.read:
            prefix.append(_Entry(entry.op, entry.effect, False, entry.inv,
                                 math.inf, False))
    return prefix


def check_register(ops: Iterable[Op], *, key: bytes = b"") -> KeyResult:
    """Check one key's ops against the sequential register model."""
    entries = _entries(ops)
    budget = [MAX_STATES]
    order = _search(entries, budget)
    states = MAX_STATES - budget[0]
    if order is not None:
        return KeyResult(key, True, len(entries), states,
                         linearization=[entries[i].op.index for i in order])
    # Non-linearizable: find the earliest completion whose prefix
    # already fails — the op to stare at in the post-mortem. Each
    # prefix search gets a fresh budget; `states` reports the main
    # search only.
    witness = None
    for cutoff in sorted({e.ret for e in entries if math.isfinite(e.ret)}):
        prefix = _prefix_at(entries, cutoff)
        if _search(prefix, [MAX_STATES]) is None:
            closers = [e.op for e in entries if e.ret == cutoff]
            witness = min(closers, key=lambda op: op.index)
            break
    return KeyResult(key, False, len(entries), states, witness=witness)


def check_history(
    history: Union[HistoryRecorder, Iterable[Op]],
) -> CheckResult:
    """Check a whole multi-key history, one register search per key.

    P-compositionality: keys are independent in every stack under test
    (hash-sharded stores, per-key LWW replication), so the history is
    linearizable iff every per-key sub-history is.
    """
    ops = history.ops if isinstance(history, HistoryRecorder) else history
    grouped: Dict[bytes, List[Op]] = {}
    for op in sorted(ops, key=lambda o: o.index):
        grouped.setdefault(op.key, []).append(op)
    results = []
    total_states = 0
    for key in sorted(grouped):
        result = check_register(grouped[key], key=key)
        total_states += result.states
        results.append(result)
    ok = all(result.ok for result in results)
    return CheckResult(ok, results, total_states)
