"""Client-observed operation histories on the simulated clock.

A history is the *outside* view of the system: what each client invoked,
when, and what it saw come back. Consistency is a property of exactly
this record — the servers' internal state is evidence, not verdict. The
model here is Jepsen's: an operation is an interval ``[invoked,
completed]`` with one of three outcomes:

* ``OK`` — the client got an answer; the op definitely took effect (for
  writes) or definitely returned that value (for reads).
* ``FAIL`` — the client got a definite error *before* the op could take
  effect (a refused read, or a write whose every candidate's circuit
  was open, so no request left). Failed ops are excluded from checking.
* ``INDETERMINATE`` — a timeout or degraded error on a write: the ack
  was lost, but the write may have landed. The checker must allow the
  op to take effect at any point after its invocation *or never* —
  collapsing this to "failed" is how real systems lose acked data
  silently.

Recorders hand out :class:`PendingOp` tokens at invocation;
the client resolves each exactly once. Histories render to canonical
bytes (:meth:`HistoryRecorder.canonical_bytes`), so a same-seed rerun
is byte-identical — the property chaos search and shrinking lean on.

A client built without a recorder holds :data:`NULL_HISTORY` (the
``NULL_SPAN`` discipline): its op bodies call ``invoke`` and resolve the
token unconditionally, and recording nothing costs two no-op calls.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError

__all__ = ["HistoryRecorder", "NULL_HISTORY", "Op", "OpStatus", "PendingOp"]


class OpStatus(enum.Enum):
    """How an invoked operation resolved, from the client's seat."""

    OK = "ok"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Op:
    """One completed client operation (a closed invoke/complete interval).

    Attributes:
        index: per-recorder sequence number (invocation order).
        client: name of the invoking client.
        action: ``"r"`` (get), ``"w"`` (put) or ``"d"`` (delete).
        key: the key operated on.
        value: the value written, or the value a read returned
            (``None`` for a miss / a delete).
        status: OK / FAIL / INDETERMINATE.
        invoked / completed: simulated-time interval bounds. An
            indeterminate or still-open op completes at ``+inf``: no
            later op is ever constrained to follow it.
        stamp: the server-assigned LWW stamp for acknowledged geo
            writes (``None`` elsewhere) — lets the lost-ack invariant
            rank concurrent writes exactly as the system did.
        staleness: for reads served under an explicit staleness bound
            (follower reads), the staleness the server reported.
            Such reads are checked against the bound, not against
            linearizability — bounded staleness is their contract.
    """

    index: int
    client: str
    action: str
    key: bytes
    value: Optional[bytes]
    status: OpStatus
    invoked: float
    completed: float
    stamp: Optional[float] = None
    staleness: Optional[float] = None

    def line(self) -> str:
        """Canonical one-line rendering (stable across runs and seeds)."""
        value = self.value.hex() if self.value is not None else "-"
        extra = ""
        if self.stamp is not None:
            extra += f" stamp={self.stamp!r}"
        if self.staleness is not None:
            extra += f" staleness={self.staleness!r}"
        return (
            f"{self.index} {self.client} {self.action} {self.key.hex()} "
            f"{value} {self.status.value} inv={self.invoked!r} "
            f"ret={self.completed!r}{extra}"
        )


class PendingOp:
    """An invoked-but-unresolved operation; resolve it exactly once."""

    def __init__(self, recorder: "HistoryRecorder", index: int, client: str,
                 action: str, key: bytes, value: Optional[bytes],
                 invoked: float):
        self._recorder = recorder
        self.index = index
        self.client = client
        self.action = action
        self.key = key
        self.value = value
        self.invoked = invoked
        self.resolved = False

    def _close(self, status: OpStatus, value: Optional[bytes],
               completed: float, stamp: Optional[float],
               staleness: Optional[float]) -> Op:
        if self.resolved:
            raise ConfigurationError(
                f"operation {self.index} resolved twice"
            )
        self.resolved = True
        op = Op(self.index, self.client, self.action, self.key, value,
                status, self.invoked, completed, stamp, staleness)
        self._recorder._closed(op)
        return op

    def ok(self, value: Optional[bytes] = None, *,
           stamp: Optional[float] = None,
           staleness: Optional[float] = None) -> Op:
        """The op definitely happened; for reads, *value* is what it saw."""
        value = value if self.action == "r" else self.value
        return self._close(OpStatus.OK, value, self._recorder.now(),
                           stamp, staleness)

    def fail(self) -> Op:
        """The op definitely did *not* take effect (definite error)."""
        return self._close(OpStatus.FAIL, self.value, self._recorder.now(),
                           None, None)

    def indeterminate(self) -> Op:
        """The outcome is unknown (lost ack): it may have taken effect."""
        return self._close(OpStatus.INDETERMINATE, self.value, math.inf,
                           None, None)

    def raised(self, sent: bool = True) -> Op:
        """The op raised: a write whose request was *sent* may have
        landed (indeterminate); a read, or an unsent write, failed."""
        if sent and self.action != "r":
            return self.indeterminate()
        return self.fail()


class HistoryRecorder:
    """Collects one run's client-observed operations.

    One recorder per scenario; every client under test shares it, so op
    indices give a global invocation order. Clients call
    :meth:`invoke` before the attempt and resolve the returned
    :class:`PendingOp` with the outcome.
    """

    def __init__(self, clock):
        self._clock = clock
        self.ops: List[Op] = []
        self._next_index = 0
        self._open: Dict[int, PendingOp] = {}

    def now(self) -> float:
        return self._clock.now

    def invoke(self, client: str, action: str, key: bytes,
               value: Optional[bytes] = None) -> PendingOp:
        if action not in ("r", "w", "d"):
            raise ConfigurationError(f"unknown history action {action!r}")
        pending = PendingOp(self, self._next_index, client, action,
                            bytes(key), value, self._clock.now)
        self._open[pending.index] = pending
        self._next_index += 1
        return pending

    def _closed(self, op: Op) -> None:
        self._open.pop(op.index, None)
        self.ops.append(op)

    def close_open_ops(self) -> int:
        """Mark every still-open op indeterminate (end-of-run cleanup).

        A client process parked on a dead replica when the scenario's
        horizon hits is exactly a lost ack: the op was invoked, no
        answer ever came. Returns how many ops were closed.
        """
        pending = sorted(self._open.values(), key=lambda p: p.index)
        for open_op in pending:
            open_op.indeterminate()
        return len(pending)

    # -- views ---------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        out = {"ok": 0, "fail": 0, "indeterminate": 0}
        for op in self.ops:
            out[op.status.value] += 1
        return out

    # -- canonical form ------------------------------------------------------
    def canonical_bytes(self) -> bytes:
        """The history as canonical bytes, one op per line, by index."""
        lines = [op.line() for op in sorted(self.ops, key=lambda o: o.index)]
        return ("\n".join(lines) + "\n").encode() if lines else b""

    def digest(self) -> str:
        """Short stable digest of the canonical history."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()[:16]


class _NullPendingOp:
    """The token :data:`NULL_HISTORY` hands out: resolving it does nothing."""

    def ok(self, value: Optional[bytes] = None, *,
           stamp: Optional[float] = None,
           staleness: Optional[float] = None) -> None:
        pass

    def fail(self) -> None:
        pass

    def indeterminate(self) -> None:
        pass

    def raised(self, sent: bool = True) -> None:
        pass


class _NullHistory:
    """A recorder that records nothing (see :data:`NULL_HISTORY`)."""

    _PENDING = _NullPendingOp()

    def invoke(self, client: str, action: str, key: bytes,
               value: Optional[bytes] = None) -> _NullPendingOp:
        return self._PENDING


#: What a client holds when no ``history=`` recorder was passed.
NULL_HISTORY = _NullHistory()
