"""Causal cross-substrate span tracing on the simulated clock.

A :class:`Span` is one timed operation on one substrate (an RPC call, a
link transmission, an NVMe command, a PCIe transfer). Spans belong to a
:class:`TraceContext` — one logical flow (a request, a replication
batch, a shard migration) with a deterministic ``trace_id`` and its own
open-span stack — so concurrent traced flows build separate, intact
trees instead of interleaving on a shared stack.

Context crosses execution boundaries explicitly: the RPC layer carries
the originating context on every request, handlers and long-lived
shipper loops run their generators through :meth:`Tracer.drive`, which
re-activates the flow's context around every resumed segment and clears
it at every yield. Between those activations nothing is ambient, so a
span opened by flow A while flow B is suspended can never attach to B.

Head sampling is deterministic and ``PYTHONHASHSEED``-independent: the
decision for the *n*-th flow hashes ``(seed, n)`` through ``blake2b``
(never Python's ``hash``), so the same seeded run samples the same
flows — and produces byte-identical renders — on every interpreter.

The tracer is **off by default** and costs one attribute check per
instrumented operation when off; no ``Span``, ``TraceContext``, or
keyword dict is allocated on the unsampled path (the ``NULL_SPAN``
fast-path guards at the instrumented sites).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Set

__all__ = ["Span", "TraceContext", "Tracer", "NULL_SPAN"]


class Span:
    """One timed operation; a node in the trace tree. Context manager."""

    __slots__ = (
        "tracer", "name", "substrate", "start", "end", "parent",
        "children", "attrs", "context", "span_id",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        substrate: str,
        start: float,
        parent: Optional["Span"],
        attrs: Dict[str, Any],
        context: Optional["TraceContext"] = None,
        span_id: str = "",
    ):
        self.tracer = tracer
        self.name = name
        self.substrate = substrate
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.children: List["Span"] = []
        self.attrs = attrs
        self.context = context
        self.span_id = span_id

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds; uses the clock's now while still open."""
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def trace_id(self) -> str:
        """The owning flow's trace id (empty for pre-context spans)."""
        return self.context.trace_id if self.context is not None else ""

    def annotate(self, **attrs: Any) -> "Span":
        """Attach key=value attributes to the span; returns self."""
        self.attrs.update(attrs)
        return self

    # -- tree queries --------------------------------------------------------
    def walk(self):
        """Yield this span and every descendant, depth-first (recursive)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def substrates(self) -> Set[str]:
        """Every substrate this span tree touches."""
        return {span.substrate for span in self.walk()}

    def render(self) -> str:
        """This subtree as an indented text tree (microsecond times)."""
        lines: List[str] = []
        _render_into(self, 0, lines)
        return "\n".join(lines)

    # -- closing ---------------------------------------------------------------
    def finish(self, end: Optional[float] = None) -> None:
        """Close the span now; what leaving its ``with`` block does. For
        spans whose end is a callback rather than the end of a block.
        *end* closes it at an instant already known instead (a frame's
        serialization, computed when the frame is handed over)."""
        self.tracer._finish(self, end)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._finish(self)
        return False

    def __repr__(self) -> str:
        return (
            f"Span({self.name}@{self.substrate}, start={self.start:.9f}, "
            f"duration={self.duration:.9f})"
        )


def _render_into(span: Span, depth: int, lines: List[str]) -> None:
    attrs = "".join(
        f" {key}={value}" for key, value in sorted(span.attrs.items())
    )
    substrate = f" [{span.substrate}]" if span.substrate else ""
    lines.append(
        f"{'  ' * depth}{span.name}{substrate} "
        f"t={span.start * 1e6:.3f}us "
        f"dur={span.duration * 1e6:.3f}us{attrs}"
    )
    for child in span.children:
        _render_into(child, depth + 1, lines)


class _NullSpan:
    """The no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def finish(self, end: Optional[float] = None) -> None:
        """No-op finish matching :meth:`Span.finish`."""

    def annotate(self, **attrs: Any) -> "_NullSpan":
        """No-op annotate matching :meth:`Span.annotate`; returns self."""
        return self


NULL_SPAN = _NullSpan()


class TraceContext:
    """One sampled flow: identity and open-span stack.

    Carried on :class:`~repro.transport.RpcRequest` (and on replication
    log entries) to propagate causality across RPC, shard, and WAN hops.
    Only *sampled* flows ever allocate a context — an unsampled flow is
    represented as ``None`` everywhere, keeping that path allocation
    free.
    """

    __slots__ = ("tracer", "trace_id", "stack", "_spans")

    def __init__(self, tracer: "Tracer", trace_id: str):
        self.tracer = tracer
        self.trace_id = trace_id
        #: This flow's open spans, innermost last.
        self.stack: List[Span] = []
        self._spans = 0

    def next_span_id(self) -> str:
        self._spans += 1
        return f"{self.trace_id}:{self._spans}"

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id}, open={len(self.stack)})"


def _blake_fraction(material: str) -> float:
    """A uniform [0, 1) draw derived from ``blake2b(material)``.

    Hash-based rather than ``random``-based so sampling decisions never
    perturb workload RNG streams, and ``blake2b`` rather than ``hash()``
    so they are identical across ``PYTHONHASHSEED`` values.
    """
    digest = hashlib.blake2b(material.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class Tracer:
    """Builds per-flow span trees against any clock exposing ``now``.

    Usually reached as ``sim.tracer`` (the simulator is the clock).
    Typical use::

        sim.tracer.enable()
        sim.run_process(client.get(b"key"))
        print(sim.tracer.render())

    ``enable(sample_rate=0.1, seed=7)`` switches to head sampling: each
    new flow (each RPC issued outside an existing flow) draws one
    deterministic decision; unsampled flows record nothing and allocate
    nothing. ``exemplars=True`` additionally lets instrumented
    histograms capture the sampled flow's trace id per latency bucket
    (see :meth:`repro.telemetry.Histogram.exemplar`).
    """

    def __init__(self, clock):
        self.clock = clock
        self.enabled = False
        self.sample_rate = 1.0
        self.sample_seed = 0
        self.exemplars = False
        self.roots: List[Span] = []
        #: The flow whose synchronous segment is executing right now.
        #: Managed by :meth:`drive` / :meth:`activate`; ``None`` between
        #: activated segments.
        self._active: Optional[TraceContext] = None
        #: Legacy single-flow context for bare ``tracer.span()`` use
        #: outside any flow (only at sample_rate >= 1.0).
        self._ambient: Optional[TraceContext] = None
        self._flows = 0

    # -- switches ------------------------------------------------------------
    def enable(self, sample_rate: float = 1.0, seed: int = 0,
               exemplars: bool = False) -> "Tracer":
        """Start recording spans; returns self.

        ``sample_rate`` < 1.0 turns on deterministic head sampling
        seeded by ``seed``; ``exemplars`` arms histogram exemplar
        capture for sampled flows.
        """
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate}")
        self.enabled = True
        self.sample_rate = sample_rate
        self.sample_seed = seed
        self.exemplars = exemplars
        return self

    def disable(self) -> "Tracer":
        """Stop recording; finished spans are kept, new ones ignored."""
        self.enabled = False
        return self

    # -- flows ---------------------------------------------------------------
    def flow(self) -> Optional[TraceContext]:
        """Head-sample a new root flow.

        Returns a fresh :class:`TraceContext` when the deterministic
        per-flow draw lands under ``sample_rate`` (always, at the
        default rate of 1.0), or ``None`` — record nothing, allocate
        nothing — when it does not or when tracing is disabled.
        """
        if not self.enabled:
            return None
        self._flows += 1
        if self.sample_rate < 1.0 and _blake_fraction(
            f"sample/{self.sample_seed}/{self._flows}"
        ) >= self.sample_rate:
            return None
        trace_id = hashlib.blake2b(
            f"trace/{self.sample_seed}/{self._flows}".encode(), digest_size=8
        ).hexdigest()
        return TraceContext(self, trace_id)

    @property
    def active_context(self) -> Optional[TraceContext]:
        """The flow executing right now, or ``None`` between segments."""
        return self._active

    def activate(self, context: Optional[TraceContext]) -> None:
        """Make *context* the executing flow (``None``: no flow) — what
        :meth:`drive` does around each resumption, for a callback that
        runs a flow's segment outside any generator."""
        self._active = context

    def drive(self, generator, context: TraceContext):
        """Run *generator* with *context* active across every resumption.

        Simulator processes interleave at yields; this wrapper restores
        the flow's context before each ``send``/``throw`` into the
        generator and clears it before handing the yielded event back to
        the engine, so every span the generator (and anything it calls
        synchronously) opens lands on its own flow's stack. Transparent
        to ``yield from``: same yielded events, same return value, same
        exceptions.
        """
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self._active = context
            try:
                if error is not None:
                    exc, error = error, None
                    item = generator.throw(exc)
                else:
                    item = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._active = None
            try:
                value = yield item
            except BaseException as caught:
                error = caught

    # -- recording -----------------------------------------------------------
    def span(self, name: str, substrate: str = "", **attrs: Any):
        """Open a span on the active flow; close it by exiting ``with``.

        Returns :data:`NULL_SPAN` when tracing is disabled, so the
        instrumented datapaths pay (almost) nothing when not observed.
        With sampling on, a site executing outside any sampled flow also
        gets :data:`NULL_SPAN`; at the default full rate, spans opened
        outside any flow share one ambient context (single-flow use).
        """
        if not self.enabled:
            return NULL_SPAN
        context = self._active
        if context is None:
            if self.sample_rate < 1.0:
                return NULL_SPAN
            context = self._ambient
            if context is None:
                self._flows += 1
                trace_id = hashlib.blake2b(
                    f"trace/{self.sample_seed}/{self._flows}".encode(),
                    digest_size=8,
                ).hexdigest()
                context = self._ambient = TraceContext(self, trace_id)
            self._active = context
        return self.begin(context, name, substrate, attrs)

    def begin(self, context: TraceContext, name: str, substrate: str = "",
              attrs: Optional[Dict[str, Any]] = None,
              parent: Optional[Span] = None) -> Span:
        """Open a span on an explicit flow, optionally under an explicit
        parent (the RPC server parents ``rpc.handle`` under the caller's
        ``rpc.call`` this way). Defaults to the flow's innermost open
        span."""
        if parent is None:
            parent = context.stack[-1] if context.stack else None
        span = Span(
            self, name, substrate, self.clock.now, parent,
            attrs if attrs is not None else {},
            context, context.next_span_id(),
        )
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        context.stack.append(span)
        return span

    def _finish(self, span: Span, end: Optional[float] = None) -> None:
        span.end = self.clock.now if end is None else end
        context = span.context
        if context is not None:
            stack = context.stack
            # Usually the span is on top; an out-of-order close (a
            # retransmit racing a response) is removed where it is.
            if span in stack:
                stack.remove(span)
        if span.parent is None:
            if self._active is context:
                self._active = None
            if context is not None:
                recorder = getattr(self.clock, "recorder", None)
                if recorder is not None:
                    recorder.record_trace(span)

    # -- rendering -----------------------------------------------------------
    def substrates(self) -> Set[str]:
        """Distinct substrate prefixes (text before the first dot) seen."""
        found: Set[str] = set()
        for root in self.roots:
            found |= root.substrates()
        return found

    def render(self) -> str:
        """The trace as an indented tree with times in microseconds."""
        lines: List[str] = []
        for root in self.roots:
            _render_into(root, 0, lines)
        return "\n".join(lines)
