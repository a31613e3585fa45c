"""A Willow-style flexible RPC layer over any datagram-like transport.

Paper §2.4: "we take inspiration from the flexible RPC interface pioneered
by Willow. The RPC interface can be specialized end-to-end with network,
storage, and application-level protocols." Servers register named handlers
(which may be simulation processes touching flash, segments, or pipelines);
clients call them over UDP, HOMA, or a TCP adapter — the E12 sweep. Any
socket plugs in directly whose ``sendto(dst, payload, size)`` returns an
event that fires once the message's last frame has been serialized, and
whose ``deliver`` hook takes each complete ``(src, payload, size)``.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.common.errors import ConfigurationError, ProtocolError
from repro.overload.admission import AdmissionController, Priority
from repro.overload.queues import BoundedQueue, QueuePolicy
from repro.sim import TIMED_OUT, Event, Simulator
from repro.telemetry import MetricScope
from repro.telemetry.tracing import NULL_SPAN

RPC_HEADER = 16

#: Highest shed class, hoisted so request classification does not
#: enumerate the Priority enum on every dispatch.
_MAX_PRIORITY = max(Priority).value

#: Reserved method name for coalesced batches (built into every server).
BATCH_METHOD = "rpc.batch"

#: Most sub-operations one batch may coalesce into a single round trip.
MAX_BATCH_OPS = 64


class RpcError(ProtocolError):
    """A remote handler raised, or the method does not exist."""


class RetryBudget:
    """A shared cap on retransmissions per sliding window across calls.

    Per-call retry limits bound one client process, but during an outage
    *every* concurrent call retries at once, multiplying offered load by
    ``1 + retries`` exactly when the system can least afford it. A
    budget shared across an :class:`RpcClient`'s calls caps the total
    retransmissions granted inside a trailing window; once spent, calls
    fail fast instead of amplifying the storm (the spirit of
    retry-budget designs in production RPC stacks).
    """

    def __init__(self, clock, budget: int, window: float,
                 metrics: Optional[MetricScope] = None):
        if budget < 1:
            raise ConfigurationError("retry budget must be >= 1")
        if window <= 0:
            raise ConfigurationError("retry budget window must be positive")
        self.clock = clock
        self.budget = budget
        self.window = window
        self._spends: Deque[float] = deque()
        metrics = (
            metrics if metrics is not None
            else MetricScope.standalone("rpc.retry_budget")
        )
        self._granted = metrics.counter("granted")
        self._exhausted = metrics.counter("exhausted")

    @property
    def granted(self) -> int:
        return self._granted.value

    def _expire(self) -> None:
        now = self.clock.now
        while self._spends and now - self._spends[0] > self.window:
            self._spends.popleft()

    def try_spend(self) -> bool:
        """Grant one retransmission, or refuse if the window is spent."""
        self._expire()
        if len(self._spends) < self.budget:
            self._spends.append(self.clock.now)
            self._granted.value += 1
            return True
        self._exhausted.value += 1
        return False


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for RPC retransmissions.

    The wait before retransmission ``n`` (0-based) is
    ``base * multiplier**n`` capped at ``max_interval``, then jittered by
    ``±jitter`` (a fraction). Jitter draws come from an RNG seeded with
    ``(seed, rpc id)``, so a run's retransmit schedule is reproducible
    while concurrent calls still decorrelate — the fix for retry storms
    the fixed retransmit interval invited.
    """

    base: float = 1e-3
    multiplier: float = 2.0
    max_interval: float = 64e-3
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base <= 0 or self.multiplier < 1 or self.max_interval < self.base:
            raise ConfigurationError("invalid retry policy intervals")
        if not 0 <= self.jitter < 1:
            raise ConfigurationError("jitter must be in [0, 1)")

    def rng_for(self, rpc_id: int) -> random.Random:
        return random.Random(f"{self.seed}/{rpc_id}")

    def interval(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.base * self.multiplier ** attempt, self.max_interval)
        if self.jitter == 0:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class RpcRequest:
    """The wire request: id, method name, arguments, expected reply size.

    A ``__slots__`` value object (one per call, two tuple-sized fields
    smaller than a ``__dict__``-backed dataclass) — the wire objects sit
    on the per-op fast path, so their footprint is part of the RPC cost.

    ``trace``/``parent_span`` carry the caller's sampled
    :class:`~repro.telemetry.TraceContext` (and the ``rpc.call`` span to
    parent the server's ``rpc.handle`` under) across the wire — the
    in-simulation stand-in for W3C traceparent propagation. Both stay
    ``None`` on every unsampled call.
    """

    __slots__ = ("rpc_id", "method", "args", "response_size", "priority",
                 "trace", "parent_span")

    def __init__(self, rpc_id: int, method: str, args: tuple,
                 response_size: int, priority: int = 0):
        self.rpc_id = rpc_id
        self.method = method
        self.args = args
        self.response_size = response_size
        #: Load-shedding class (:class:`repro.overload.Priority` value):
        #: 0 = user, higher = shed earlier under overload.
        self.priority = priority
        self.trace = None
        self.parent_span = None

    def __repr__(self) -> str:
        return (f"RpcRequest(rpc_id={self.rpc_id}, method={self.method!r}, "
                f"args={self.args!r}, response_size={self.response_size}, "
                f"priority={self.priority})")


class RpcResponse:
    """The wire response: matching id, result or marshalled error."""

    __slots__ = ("rpc_id", "ok", "result", "error")

    def __init__(self, rpc_id: int, ok: bool, result: Any = None,
                 error: str = ""):
        self.rpc_id = rpc_id
        self.ok = ok
        self.result = result
        self.error = error

    def __repr__(self) -> str:
        return (f"RpcResponse(rpc_id={self.rpc_id}, ok={self.ok}, "
                f"result={self.result!r}, error={self.error!r})")


class BatchOp:
    """One sub-operation inside a coalesced :data:`BATCH_METHOD` request.

    Sizes model the op's share of the wire payload: the batch request
    occupies ``RPC_HEADER + sum(request_size)`` bytes on the network and
    the response ``RPC_HEADER + sum(response_size)`` — one round trip
    amortized over every op.
    """

    __slots__ = ("method", "args", "request_size", "response_size")

    def __init__(self, method: str, args: tuple = (),
                 request_size: int = 64, response_size: int = 64):
        self.method = method
        self.args = args
        self.request_size = request_size
        self.response_size = response_size

    def __repr__(self) -> str:
        return (f"BatchOp(method={self.method!r}, args={self.args!r}, "
                f"request_size={self.request_size}, "
                f"response_size={self.response_size})")


class RpcServer:
    """Dispatches incoming requests to registered handler processes.

    A handler is ``fn(*args)`` returning either a plain value or a generator
    (a simulation process, e.g. one that performs NVMe commands); generator
    handlers are driven to completion before the response is sent — the
    "run-to-completion data path" of §2.4.

    By default every incoming request is dispatched concurrently — an
    *implicit unbounded queue* of in-flight handlers. Passing
    ``queue_capacity`` switches the server to overload-protected mode: a
    :class:`~repro.overload.BoundedQueue` (FIFO/LIFO/CoDel) feeds a pool
    of ``workers`` run-to-completion worker processes (the wimpy-core
    datapath), excess requests are refused with an immediate cheap error
    response (backpressure the client sees instead of a timeout), and an
    optional :class:`~repro.overload.AdmissionController` sheds traffic
    by priority class before it costs any queue slot.
    """

    def __init__(
        self,
        sim: Simulator,
        socket: Any,
        admission: Optional[AdmissionController] = None,
        queue_capacity: Optional[int] = None,
        queue_policy: QueuePolicy = QueuePolicy.FIFO,
        workers: int = 1,
        codel_target: float = 5e-3,
        codel_interval: float = 10e-3,
    ):
        self.sim = sim
        self._tracer = sim.tracer
        self.socket = socket
        self._handlers: Dict[str, Callable] = {}
        self._metrics = sim.telemetry.unique_scope(
            f"rpc.server.{socket.address}"
        )
        self._requests_served = self._metrics.counter("requests_served")
        self._shed = self._metrics.counter("requests_shed")
        self._batches_served = self._metrics.counter("batches_served")
        self._batched_ops = self._metrics.counter("batched_ops")
        self.admission = admission
        self.queue: Optional[BoundedQueue] = None
        if queue_capacity is not None:
            if workers < 1:
                raise ConfigurationError("need at least one worker")
            self.queue = BoundedQueue(
                sim, self._metrics.scope("queue"), queue_capacity,
                policy=queue_policy, codel_target=codel_target,
                codel_interval=codel_interval, on_drop=self._on_queue_drop,
            )
            for __ in range(workers):
                sim.spawn(self._worker_loop())
        socket.deliver = self._on_datagram

    @property
    def requests_shed(self) -> int:
        """Requests refused by admission control or queue drops."""
        return self._shed.value

    @property
    def address(self) -> str:
        return self.socket.address

    def register(self, method: str, handler: Callable) -> None:
        """Bind *handler* to *method*; one handler per name, no rebinding."""
        if method == BATCH_METHOD:
            raise ProtocolError(f"{BATCH_METHOD!r} is built in")
        if method in self._handlers:
            raise ProtocolError(f"handler for {method!r} already registered")
        self._handlers[method] = handler

    def _reject(self, src: str, request: RpcRequest, reason: str) -> None:
        """Answer with an immediate, header-sized overload error (sent
        from an entry of its own, as the rejection is decided)."""
        response = RpcResponse(request.rpc_id, ok=False, error=reason)
        self.sim.call_later(
            0.0, partial(self.socket.sendto, src, response, RPC_HEADER)
        )

    def _on_queue_drop(self, item, reason: str) -> None:
        src, request = item
        self._shed.value += 1
        if self.admission is not None:
            self.admission.record_overload()
        self._reject(src, request, f"overload: dropped ({reason})")

    def _on_datagram(self, datagram: tuple) -> None:
        src, request, __ = datagram
        if not isinstance(request, RpcRequest):
            return
        if self.admission is not None and not self.admission.admit(
            Priority(max(0, min(int(request.priority), _MAX_PRIORITY)))
        ):
            self._shed.value += 1
            self._reject(src, request, "overload: admission shed")
            return
        if self.queue is not None:
            # A full queue rejects via _on_queue_drop — no hidden
            # buffering, the client learns immediately.
            self.queue.try_put((src, request))
            return
        if request.trace is None:
            self.sim.spawn(self._handle(src, request))
        else:
            self.sim.spawn(self._serve(src, request))

    def _worker_loop(self):
        """One wimpy core: run-to-completion service off the queue."""
        queue = self.queue
        assert queue is not None
        while True:
            # Take what is already waiting inside this entry; park on a
            # getter (woken inline by try_put) only when there is nothing.
            item = queue.poll()
            if item is None:
                item = yield queue.get()
            src, request = item
            if request.trace is None:
                yield from self._handle(src, request)
            else:
                yield from self._serve(src, request)

    def _serve(self, src: str, request: RpcRequest):
        """The process that handles a traced *request* (an untraced one
        is :meth:`_handle` itself): it resumes the caller's flow on this
        side of the wire, so the handler runs with the originating
        context active and its spans join the caller's trace tree."""
        return self._tracer.drive(self._handle(src, request), request.trace)

    def _handle(self, src: str, request: RpcRequest):
        method = request.method
        handler = (self._batch if method == BATCH_METHOD
                   else self._handlers.get(method))
        if handler is None:
            response = RpcResponse(
                request.rpc_id, ok=False, error=f"no method {method!r}"
            )
            yield self.socket.sendto(src, response, RPC_HEADER)
            return
        # The span and its attribute dict exist only when tracing is on;
        # untraced, there is no span to enter or finish.
        span = None
        tracer = self._tracer
        if request.trace is not None:
            # Parent explicitly under the caller's rpc.call span rather
            # than whatever happens to be innermost — concurrent flows
            # through one server must not cross-link.
            span = tracer.begin(
                request.trace, "rpc.handle", "transport",
                {"method": method, "server": self.socket.address},
                parent=request.parent_span,
            )
        elif tracer.enabled:
            span = tracer.span(
                "rpc.handle", "transport",
                method=method, server=self.socket.address,
            )
        if span is not None and method == BATCH_METHOD:
            span.annotate(ops=len(request.args[0]))
        try:
            try:
                outcome = handler(*request.args)
                if hasattr(outcome, "send"):
                    # A generator: run it to completion in sim time, in
                    # this process (already on the caller's flow when
                    # the request is traced).
                    outcome = yield from outcome
                response = RpcResponse(request.rpc_id, ok=True, result=outcome)
            except Exception as exc:  # noqa: BLE001 - marshalled to the client
                response = RpcResponse(request.rpc_id, ok=False, error=str(exc))
            self._requests_served.value += 1
            yield self.socket.sendto(
                src, response, RPC_HEADER + request.response_size
            )
        finally:
            if span is not None:
                span.finish()

    def _batch(self, ops: tuple):
        """The built-in :data:`BATCH_METHOD` handler: run every sub-op
        run-to-completion; return one :class:`RpcResponse` per op.

        The batch occupied exactly one admission-controller token and one
        queue slot (it is an ordinary request until it reaches a worker),
        so coalescing N ops costs the overload machinery 1/N of the
        per-op accounting — the point of batching. Sub-ops are looked up
        among the registered handlers only (a nested batch answers "no
        method" in its slot); a sub-op failure is marshalled in its slot.
        """
        results = []
        for position, (method, args) in enumerate(ops):
            handler = self._handlers.get(method)
            if handler is None:
                results.append(RpcResponse(
                    position, ok=False, error=f"no method {method!r}"
                ))
                continue
            try:
                outcome = handler(*args)
                if hasattr(outcome, "send"):
                    outcome = yield from outcome
                results.append(RpcResponse(position, ok=True, result=outcome))
            except Exception as exc:  # noqa: BLE001 - marshalled per op
                results.append(RpcResponse(position, ok=False,
                                           error=str(exc)))
            self._batched_ops.value += 1
        self._batches_served.value += 1
        return results


class RpcClient:
    """Issues calls and matches responses by rpc id.

    ``retry_budget`` (a :class:`RetryBudget`, optionally shared between
    clients) caps total retransmissions across *all* of this client's
    concurrent calls: when the window's budget is spent, a timed-out
    call fails immediately instead of joining the retry storm.
    """

    def __init__(self, sim: Simulator, socket: Any,
                 retry_budget: Optional[RetryBudget] = None):
        self.sim = sim
        self._tracer = sim.tracer
        self.socket = socket
        self.retry_budget = retry_budget
        self._pending: Dict[int, Event] = {}
        # Per-client ids: rpc ids only need to be unique within this
        # client's pending table, and a module-global counter would leak
        # state across runs into RetryPolicy's per-id jitter RNG —
        # breaking same-seed => byte-identical telemetry.
        self._rpc_ids = itertools.count()
        self._metrics = sim.telemetry.unique_scope(
            f"rpc.client.{socket.address}"
        )
        self._calls = self._metrics.counter("calls")
        self._batched_ops = self._metrics.counter("batched_ops")
        self._retransmits = self._metrics.counter("retransmits")
        self._deadline_exceeded = self._metrics.counter("deadline_exceeded")
        self._budget_exhausted = self._metrics.counter("retry_budget_exhausted")
        self._call_latency = self._metrics.histogram("call_latency")
        socket.deliver = self._on_datagram

    @property
    def retransmits(self) -> int:
        return self._retransmits.value

    def _on_datagram(self, datagram: tuple) -> None:
        response = datagram[1]
        if isinstance(response, RpcResponse):
            waiter = self._pending.pop(response.rpc_id, None)
            if waiter is not None:
                # Root of the delivery entry: the caller resumes here.
                waiter.wake(response)

    def call(
        self,
        server: str,
        method: str,
        *args: Any,
        request_size: int = 64,
        response_size: int = 64,
        timeout: Optional[float] = None,
        retries: int = 0,
        deadline: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        priority: int = 0,
    ):
        """Process: one RPC; returns the handler's result or raises RpcError.

        With ``timeout`` set, an unanswered request is retransmitted up to
        ``retries`` times (needed over lossy datagram transports), each
        attempt waiting ``timeout``. A :class:`RetryPolicy` replaces that
        wait with exponential backoff + jitter; ``timeout`` is then
        ignored. A retransmit whose first copy was only late runs the
        handler again: delivery is at least once, so a non-idempotent
        handler can apply twice (DESIGN §11; ROADMAP item 1 closes it).

        ``deadline`` bounds the *whole call* in simulated seconds: when the
        budget runs out — even with ``timeout=None``, which otherwise waits
        forever on a dead server — the call raises
        ``RpcError("... deadline exceeded")``.
        """
        request = RpcRequest(next(self._rpc_ids), method, args, response_size,
                             priority=priority)
        issuing = self._issue(server, request, request_size, timeout, retries,
                              deadline, policy)
        if self._tracer.enabled:
            flow = self._flow(request)
            if flow is not None:
                # This call is a new root flow: keep it active across
                # every resumption of the send/retry loop.
                issuing = self._tracer.drive(issuing, flow)
        response = yield from issuing
        if not response.ok:
            raise RpcError(response.error)
        return response.result

    def call_batch(self, server: str, ops: "List[BatchOp]"):
        """Process: coalesce up to :data:`MAX_BATCH_OPS` ops into one RPC.

        :meth:`issue_batch` plus a wait: the caller resumes inside the
        entry that delivers the answer, as from any untimed call. A
        transport-level failure (a shed batch) raises :class:`RpcError`
        for the batch as a whole.

        Returns:
            ``List[RpcResponse]``, index-aligned with *ops*.
        """
        answered = Event(self.sim)
        self.issue_batch(server, ops, answered.wake)
        response = yield answered
        if not response.ok:
            raise RpcError(response.error)
        return response.result

    def issue_batch(self, server: str, ops: "List[BatchOp]",
                    answer: Callable[[RpcResponse], None]) -> None:
        """Send *ops* as one batch now; ``answer(response)`` runs inside
        the entry that delivers the response.

        The whole batch travels as a single request (one network round
        trip, one admission token, one queue slot, one worker dispatch)
        and is answered with a list of per-op :class:`RpcResponse`
        objects in op order — a sub-op failure is marshalled in its slot
        instead of failing the batch; a shed batch answers with
        ``ok=False``. The batch is sent once, at the default priority,
        with no timeout or deadline, so nothing is timed from the send
        and no process is needed: the answer is a callback.

        Tracing follows :meth:`_flow`, as :meth:`call` does; a flow the
        batch draws itself is active around the send (``net.tx`` is
        stamped with it) and around the close of its ``rpc.call`` span.

        Args:
            server: destination address.
            ops: the :class:`BatchOp` sequence to coalesce (1..64).
            answer: called with the batch's :class:`RpcResponse`.
        """
        if not 1 <= len(ops) <= MAX_BATCH_OPS:
            raise ConfigurationError(
                f"batch needs 1..{MAX_BATCH_OPS} ops, got {len(ops)}"
            )
        request_size = response_size = 0
        wire_ops = []
        for op in ops:
            request_size += op.request_size
            response_size += op.response_size
            wire_ops.append((op.method, op.args))
        request = RpcRequest(next(self._rpc_ids), BATCH_METHOD,
                             (tuple(wire_ops),), response_size)
        self._batched_ops.value += len(ops)
        self._calls.value += 1
        sim = self.sim
        started = sim.now
        tracer = self._tracer
        flow = None
        span = NULL_SPAN
        if tracer.enabled:
            flow = self._flow(request)
            if flow is not None:
                tracer.activate(flow)
            span = self._call_span(request, server)
        answered = self._pending[request.rpc_id] = Event(sim)
        self.socket.sendto(server, request, RPC_HEADER + request_size)
        if flow is not None:
            tracer.activate(None)

        def on_answer(event: Event) -> None:
            if flow is not None:
                tracer.activate(flow)
            span.finish()
            latency = sim.now - started
            self._call_latency.observe(latency)
            if request.trace is not None and tracer.exemplars:
                self._call_latency.exemplar(latency, request.trace.trace_id)
            if flow is not None:
                tracer.activate(None)
            answer(event.value)

        answered.callbacks.append(on_answer)

    def _flow(self, request: RpcRequest):
        """Put the caller's flow on *request*; return the flow this call
        draws itself, or ``None``.

        An active flow (the enclosing generator is being driven) is
        carried onto the wire. With head sampling on and no active flow,
        this call is a new root flow: draw the sampling decision, and
        return the fresh context for the caller to keep active around
        the call's own segments. Otherwise ``request.trace`` stays
        ``None``: an unsampled call traces nothing downstream, and at
        full rate the call's span lands on the ambient context.
        """
        tracer = self._tracer
        context = tracer.active_context
        if context is None and tracer.sample_rate < 1.0:
            request.trace = drawn = tracer.flow()
            return drawn
        request.trace = context
        return None

    def _call_span(self, request: RpcRequest, server: str):
        """Open the ``rpc.call`` span (tracing on): on the request's flow,
        where the server parents its ``rpc.handle``, else ambient."""
        tracer = self._tracer
        context = request.trace
        if context is not None:
            request.parent_span = tracer.begin(
                context, "rpc.call", "transport",
                {"method": request.method, "server": server},
            )
            return request.parent_span
        return tracer.span("rpc.call", "transport", method=request.method,
                           server=server)

    def _issue(
        self,
        server: str,
        request: RpcRequest,
        request_size: int,
        timeout: Optional[float],
        retries: int,
        deadline: Optional[float],
        policy: Optional[RetryPolicy],
    ):
        """Process: the shared send/retransmit/deadline loop for one id;
        returns the :class:`RpcResponse`. An untimed call is one event,
        one send and one wait: nothing is timed from the send."""
        sim = self.sim
        started = sim.now
        self._calls.value += 1
        span = (self._call_span(request, server) if self._tracer.enabled
                else None)
        timed = timeout is not None or policy is not None or deadline is not None
        attempts = 0
        try:
            while True:
                # One event per attempt, registered before the send so a
                # late answer to an earlier transmission still lands.
                # ``_on_datagram`` wakes it with the response; the
                # attempt's expiry, if it gets there first, with
                # ``TIMED_OUT``.
                answered = self._pending[request.rpc_id] = Event(sim)
                sent = self.socket.sendto(server, request, RPC_HEADER + request_size)
                if not timed:
                    response = yield answered
                    break
                # The attempt's expiry runs from when the request has
                # left the transmitter.
                yield sent
                # How long to wait before this attempt is declared lost.
                if policy is not None:
                    if not attempts:
                        rng = policy.rng_for(request.rpc_id)
                    wait = policy.interval(attempts, rng)
                else:  # a deadline-only call just bounds its one wait
                    wait = timeout if timeout is not None else deadline
                if deadline is not None:
                    remaining = deadline - (sim.now - started)
                    if remaining <= 0:
                        self._deadline_exceeded.value += 1
                        raise RpcError(f"{request.method} to {server}: "
                                       "deadline exceeded")
                    wait = min(wait, remaining)
                if not answered.triggered:
                    sim.expire_later(wait, answered)
                response = yield answered
                if response is not TIMED_OUT:
                    break
                if deadline is not None and sim.now - started >= deadline:
                    self._deadline_exceeded.value += 1
                    raise RpcError(f"{request.method} to {server}: "
                                   "deadline exceeded")
                attempts += 1
                if timeout is None and policy is None:
                    continue  # deadline-only calls do not retransmit
                if attempts > retries:
                    raise RpcError(f"{request.method} to {server} timed out "
                                   f"after {attempts} attempt(s)")
                if (self.retry_budget is not None
                        and not self.retry_budget.try_spend()):
                    self._budget_exhausted.value += 1
                    raise RpcError(f"{request.method} to {server}: retry "
                                   "budget exhausted")
                self._retransmits.value += 1
            if attempts and span is not None:
                span.annotate(retransmits=attempts)
        except RpcError:
            self._pending.pop(request.rpc_id, None)  # gave up on it
            raise
        finally:
            if span is not None:
                span.finish()
        latency = sim.now - started
        self._call_latency.observe(latency)
        if request.trace is not None and self._tracer.exemplars:
            self._call_latency.exemplar(latency, request.trace.trace_id)
        return response
