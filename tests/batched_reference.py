"""Test-only reference batch path: the oracle for multi-key ops.

This is ``ShardedKvClient._batched`` as it was while every sub-batch of
a multi-owner op ran in a runner process of its own, and
``RpcClient.call_batch`` as it was while it was a generator over
``_issue_traced``/``_issue``; ``_issue_traced`` is kept here too, since
the client no longer has it. The bodies are kept verbatim, so the
callback fan-out that replaced them can be compared against them entry
for entry (``tests/test_batched_oracle.py``). Nothing under ``src/``
imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.sharding import ShardedKvClient
from repro.transport import BatchOp, MAX_BATCH_OPS, RpcClient, RpcError
from repro.transport.rpc import BATCH_METHOD, RetryPolicy, RpcRequest


class ReferenceRpcClient(RpcClient):
    """An ``RpcClient`` whose ``call_batch`` is the generator it was."""

    def call_batch(self, server: str, ops: "List[BatchOp]"):
        """Process: coalesce up to :data:`MAX_BATCH_OPS` ops into one RPC.

        The whole batch travels as a single request (one network round
        trip, one admission token, one queue slot, one worker dispatch)
        and is answered with a list of per-op :class:`RpcResponse`
        objects in op order — a sub-op failure is marshalled in its slot
        instead of failing the batch. A transport-level failure (a shed
        batch) raises :class:`RpcError` for the batch as a whole. The
        batch is sent once, at the default priority, and awaited with no
        timeout or deadline, as :meth:`call` is without those options.

        Args:
            server: destination address.
            ops: the :class:`BatchOp` sequence to coalesce (1..64).

        Returns:
            ``List[RpcResponse]``, index-aligned with *ops*.
        """
        if not 1 <= len(ops) <= MAX_BATCH_OPS:
            raise ConfigurationError(
                f"batch needs 1..{MAX_BATCH_OPS} ops, got {len(ops)}"
            )
        request_size = sum(op.request_size for op in ops)
        response_size = sum(op.response_size for op in ops)
        wire_ops = tuple((op.method, op.args) for op in ops)
        request = RpcRequest(
            next(self._rpc_ids), BATCH_METHOD, (wire_ops,), response_size
        )
        self._batched_ops.value += len(ops)
        if self._tracer.enabled:
            response = yield from self._issue_traced(
                server, request, request_size, None, 0, None, None
            )
        else:
            response = yield from self._issue(
                server, request, request_size, None, 0, None, None
            )
        if not response.ok:
            raise RpcError(response.error)
        return response.result

    def _issue_traced(
        self,
        server: str,
        request: RpcRequest,
        request_size: int,
        timeout: Optional[float],
        retries: int,
        deadline: Optional[float],
        policy: Optional[RetryPolicy],
    ):
        """Process: attach a flow to the request, then run :meth:`_issue`.

        An already-active flow (the enclosing generator is being driven)
        is simply carried onto the wire. With head sampling on and no
        active flow, this call *is* a new root flow: draw the sampling
        decision and, when sampled, keep the fresh context active across
        every resumption of the send/retry loop. Unsampled calls carry
        ``trace=None`` and trace nothing anywhere downstream.
        """
        tracer = self._tracer
        context = tracer.active_context
        if context is not None:
            request.trace = context
            return (yield from self._issue(
                server, request, request_size, timeout, retries, deadline,
                policy,
            ))
        if tracer.sample_rate < 1.0:
            context = tracer.flow()
            if context is not None:
                request.trace = context
                return (yield from tracer.drive(
                    self._issue(server, request, request_size, timeout,
                                retries, deadline, policy),
                    context,
                ))
        # Legacy full-rate path outside any flow: _issue's span() call
        # lands on the shared ambient context, as it always has.
        return (yield from self._issue(
            server, request, request_size, timeout, retries, deadline, policy,
        ))


class ReferenceShardedKvClient(ShardedKvClient):
    """A ``ShardedKvClient`` with a runner process per sub-batch, over a
    :class:`ReferenceRpcClient`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Same object, same metric scope and ids: only the method moves.
        self.rpc.__class__ = ReferenceRpcClient

    def _batched(self, ops: List[Tuple[int, BatchOp]], settle):
        """Process: the one batched path for ``(position, op)`` pairs.

        Ops are grouped by their key's owner and coalesced into one
        ``call_batch`` per owner per :attr:`batch_limit` ops; each answer
        goes to ``settle(position, result)``. The per-owner sub-batches
        of one multi-key op travel in parallel, so the op's latency is
        the *slowest* owner's round trip, not the sum — without this, a
        batch spanning many DPUs serializes and scaling flattens. The
        first sub-batch failure is re-raised after every sub-batch has
        settled (no orphaned in-flight work). A single sub-batch has
        nothing to overlap with and runs in the caller's process.
        """
        groups: Dict[str, List[Tuple[int, BatchOp]]] = {}
        for entry in ops:
            groups.setdefault(self.cluster.owner_of(entry[1].args[0]), []).append(entry)

        def send(owner, chunk):
            responses = yield from self.rpc.call_batch(
                owner, [op for __, op in chunk]
            )
            self._round_trips.value += 1
            for (p, __), response in zip(chunk, responses):
                if not response.ok:
                    raise RpcError(response.error)
                settle(p, response.result)

        calls = [
            send(owner, group[start:start + self.batch_limit])
            for owner, group in groups.items()
            for start in range(0, len(group), self.batch_limit)
        ]
        if len(calls) == 1:
            yield from calls[0]
            return
        errors: List[RpcError] = []

        def runner(call):
            try:
                yield from call
            except RpcError as error:
                errors.append(error)

        for process in [self.sim.process(runner(c)) for c in calls]:
            yield process
        if errors:
            raise errors[0]
