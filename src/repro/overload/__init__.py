"""End-to-end overload protection (ROADMAP north star, Hyperion §2).

A self-hosting DPU has no fat host CPU to absorb bursts: once offered
load passes the wimpy datapath's capacity, unbounded queues plus
retransmitting clients produce the classic metastable congestion
collapse (goodput *falls* as load rises, because service time is wasted
on requests whose clients already gave up). This package is the
machinery that prevents it, layered bottom-up:

* :class:`BoundedQueue` — bounded, policy-driven queues (FIFO/LIFO plus
  a CoDel-style sojourn-deadline drop) that emit backpressure signals
  as telemetry gauges instead of buffering without limit;
* :class:`AdmissionController` — a token bucket whose rate adapts by
  AIMD, with per-priority shed thresholds so background and scrub
  traffic is dropped before user gets/puts;
* :class:`CircuitBreaker` — a deterministic CLOSED -> OPEN -> HALF_OPEN
  state machine (driven by the simulated clock) that turns a dead
  backend into an immediate, cheap failure instead of a per-call
  deadline wait;
* :class:`BrownoutController` — subscribes to
  :class:`~repro.telemetry.slo.SloMonitor` rule firings and steps the
  system through declared degradation modes (shrink batches, disable
  compaction, serve stale reads) instead of collapsing.

Everything obeys the repo's determinism contract: state transitions
happen at simulated times, and every log (`breaker.transition_log`,
`brownout.transition_log_bytes()`) is byte-identical for the same seed.
E15 (:mod:`repro.eval.overload`) demonstrates collapse with these
controls off and flat goodput with them on.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "admission": ("AdmissionController", "Priority", "TokenBucket"),
    "breaker": ("BreakerState", "CircuitBreaker"),
    "brownout": ("BrownoutController", "BrownoutMode"),
    "queues": ("BoundedQueue", "QueuePolicy"),
})
