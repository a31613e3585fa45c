"""The client core under every KV client (paper §2.4).

Client-driven routing with no coordinator in the data path is one
mechanism whatever the placement: :class:`KvClientCore` owns the egress
endpoint, the wire options, the ``history`` hook and the ordered,
breaker-guarded candidate walk. The clients on it keep only placement,
replication and read policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.overload.breaker import CircuitBreaker
from repro.transport import RetryBudget, RetryPolicy, RpcClient, RpcError, UdpSocket
from repro.verify.history import NULL_HISTORY

__all__ = ["KvClientCore"]


class KvClientCore:
    """Endpoint, wire options, breakers, history and candidate walk.

    ``timeout`` / ``retries`` / ``deadline`` / ``policy`` ride on every
    :meth:`_call`; an op that raised resolves its ``history`` token by
    :meth:`~repro.verify.PendingOp.raised`.
    """

    def __init__(self, sim, port, name: str, *, timeout: Optional[float] = None,
                 retries: int = 0, deadline: Optional[float] = None,
                 policy: Optional[RetryPolicy] = None,
                 retry_budget: Optional[RetryBudget] = None, history=None):
        self.sim = sim
        self.name = name
        self.history = history if history is not None else NULL_HISTORY
        self.rpc = RpcClient(sim, UdpSocket(sim, port), retry_budget=retry_budget)
        self.timeout = timeout
        self.retries = retries
        self.deadline = deadline
        self.policy = policy
        #: Walk candidate -> its RPC address / its circuit breaker.
        self._addresses: Dict[str, str] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}

    def _guard(self, scope, addresses: Dict[str, str], failures: int,
               reset: float) -> None:
        """Walk candidates are *addresses*' keys, each with a breaker."""
        self._addresses = addresses
        self.breakers = {c: CircuitBreaker(
            self.sim, scope.scope(f"breaker.{c}"), failure_threshold=failures,
            reset_timeout=reset) for c in addresses}

    def _call(self, address: str, method: str, key, arg=None, *,
              request_size: int, response_size: int):
        """Process: one ``method(key[, arg])`` RPC with this client's wire
        options. The arguments are named, not ``*args``: re-packing them
        (and the options) would cost the hot path more than this extra
        frame."""
        if arg is None:
            return self.rpc.call(
                address, method, key, request_size=request_size,
                response_size=response_size, timeout=self.timeout,
                retries=self.retries, deadline=self.deadline,
                policy=self.policy)
        return self.rpc.call(
            address, method, key, arg, request_size=request_size,
            response_size=response_size, timeout=self.timeout,
            retries=self.retries, deadline=self.deadline, policy=self.policy)

    def _first_answer(self, candidates: Iterable[str], method: str, key,
                      arg=None, *, request_size: int, response_size: int,
                      on_failure=None):
        """Process: call *candidates* in order until one answers.

        Each candidate's breaker is asked first: an open circuit is
        skipped without spending an attempt. An allowed call's outcome
        is recorded on the breaker; an :class:`RpcError` is an attempt,
        reported to ``on_failure(candidate)`` and passed over. Returns
        ``(candidate, result, attempts)``; if nobody answered,
        ``candidate`` is ``None`` and ``result`` the last error. Given an
        iterator, a second walk resumes after the candidate that
        answered.
        """
        attempts = 0
        error = None
        for candidate in candidates:
            breaker = self.breakers[candidate]
            if not breaker.allow():
                continue  # refused instantly: not an attempt
            try:
                result = yield from self._call(
                    self._addresses[candidate], method, key, arg,
                    request_size=request_size, response_size=response_size)
            except RpcError as failure:
                breaker.record_failure()
                attempts += 1
                # Kept without its traceback, which holds this frame:
                # the error would be a cycle through it.
                error = failure.with_traceback(None)
                if on_failure is not None:
                    on_failure(candidate)
                continue
            breaker.record_success()
            return candidate, result, attempts
        return None, error, attempts
