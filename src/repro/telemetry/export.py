"""Exposition formats: Prometheus text and Chrome trace-event JSON.

The registry's ``snapshot_bytes()`` is canonical but private to this
repo; real observability stacks speak standard formats. This module
renders the same state in two of them:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` families, cumulative ``_bucket{le=...}``
  series for histograms). Every sample carries the exact registry path
  as a ``path`` label, so nothing is lost to metric-name sanitization.
* :func:`chrome_trace_json` — the span tracer as Chrome trace-event
  JSON ("Trace Event Format", complete ``"ph": "X"`` events), loadable
  in ``chrome://tracing`` and https://ui.perfetto.dev.

Both renderings follow the determinism contract: output order is the
sorted-path order of ``snapshot_bytes()`` (depth-first root order for
spans), floats render via ``repr``/shortest-round-trip, so the same
seeded run produces byte-identical exports.

"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, Tracer

__all__ = [
    "prometheus_text",
    "trace_events",
    "chrome_trace_json",
]

_UNSAFE = re.compile(r"[^a-zA-Z0-9_]")

#: Namespace of every generated Prometheus family name.
FAMILY_PREFIX = "repro_"

#: The one process a trace-event export describes.
TRACE_PID = 1
TRACE_PROCESS_NAME = "hyperion-sim"


def _family_names(paths: List[str]) -> Dict[str, str]:
    """Deterministic path -> Prometheus family name, collision-free.

    ``dpu0.net.port0.rx_frames`` becomes ``repro_dpu0_net_port0_rx_frames``;
    two paths that sanitize identically (``link#1`` vs ``link_1``) get
    ``_2``, ``_3`` suffixes in sorted-path order.
    """
    names: Dict[str, str] = {}
    used: Dict[str, int] = {}
    for path in paths:
        base = FAMILY_PREFIX + _UNSAFE.sub("_", path)
        seen = used.get(base, 0)
        used[base] = seen + 1
        names[path] = base if seen == 0 else f"{base}_{seen + 1}"
    return names


def _number(value: float) -> str:
    """Render a sample value: integers bare, floats via repr."""
    if isinstance(value, int):
        return str(value)
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def prometheus_text(registry: MetricsRegistry) -> str:
    """The whole registry in the Prometheus text exposition format.

    Family names carry :data:`FAMILY_PREFIX`. Families appear in
    sorted-path order; histogram buckets are cumulative with a closing
    ``le="+Inf"`` as the format requires.
    """
    paths = registry.paths()
    names = _family_names(paths)
    lines: List[str] = []
    for path in paths:
        metric = registry.get(path)
        name = names[path]
        label = f'path="{_escape_label(path)}"'
        lines.append(f"# HELP {name} registry path {path}")
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{{{label}}} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{{{label}}} {_number(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {name} histogram")
            exemplars = metric.exemplars()
            cumulative = 0
            for index, (bound, count) in enumerate(metric.bucket_counts()):
                cumulative += count
                le = "+Inf" if bound is None else repr(bound)
                sample = f'{name}_bucket{{{label},le="{le}"}} {cumulative}'
                captured = exemplars.get(index)
                if captured is not None:
                    # OpenMetrics exemplar syntax: the trace that last
                    # landed in this bucket, linking the tail back to a
                    # concrete sampled request.
                    value, trace_id = captured
                    sample += (
                        f' # {{trace_id="{_escape_label(trace_id)}"}} '
                        f"{repr(value)}"
                    )
                lines.append(sample)
            lines.append(f"{name}_sum{{{label}}} {_number(metric.sum)}")
            lines.append(f"{name}_count{{{label}}} {metric.count}")
        else:  # pragma: no cover - no other metric kinds exist
            raise TypeError(f"cannot expose metric kind {metric!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- Chrome trace events -----------------------------------------------------

def trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The tracer's span trees as trace-event dicts.

    Every span becomes one complete event (``"ph": "X"``) with
    microsecond ``ts``/``dur`` on a single thread track, so the viewer
    reconstructs nesting from time containment exactly as the tracer
    built it from the simulated clock. ``cat`` carries the substrate,
    ``args`` the span attributes plus the tree depth.
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": TRACE_PID, "tid": 0,
            "args": {"name": TRACE_PROCESS_NAME},
        },
        {
            "ph": "M", "name": "thread_name", "pid": TRACE_PID, "tid": 1,
            "args": {"name": "simulated-datapath"},
        },
    ]

    def emit(span: Span, depth: int, parent_end: Optional[float]) -> None:
        args: Dict[str, Any] = {
            key: str(value) for key, value in sorted(span.attrs.items())
        }
        args["depth"] = depth
        start = span.start * 1e6
        end = start + span.duration * 1e6
        # Converting seconds to microseconds rounds parent and child
        # independently, which can push a child's end a few ulps past its
        # parent's; clamp so viewers reconstruct the tracer's exact tree.
        if parent_end is not None and end > parent_end:
            end = parent_end
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.substrate or "sim",
            "ts": start,
            "dur": end - start,
            "pid": TRACE_PID,
            "tid": 1,
            "args": args,
        })
        for child in span.children:
            emit(child, depth + 1, end)

    for root in tracer.roots:
        emit(root, 0, None)
    return events


def chrome_trace_json(tracer: Tracer) -> str:
    """The tracer serialized as a ``chrome://tracing``/Perfetto JSON blob.

    Canonical: keys sorted, events in depth-first root order, floats via
    shortest-round-trip — same seed, same bytes.
    """
    payload = {
        "displayTimeUnit": "ns",
        "traceEvents": trace_events(tracer),
    }
    return json.dumps(payload, sort_keys=True)
