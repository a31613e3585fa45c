"""Test-only Prometheus text parser: the oracle for ``prometheus_text``.

Minimal by design — enough to round-trip the exporter's own output (and
any plain counter/gauge/histogram exposition, OpenMetrics exemplars
included) back into families and samples, so the exporter tests assert
on parsed values instead of on substrings. Nothing under ``src/``
imports it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

#: One parsed sample: (sample name, labels, numeric value).
PromSample = Tuple[str, Dict[str, str], float]


class PromFamily:
    """One ``# TYPE`` family: its type, help text, and samples."""

    def __init__(self, name: str, kind: str = "untyped", help: str = ""):
        self.name = name
        self.kind = kind
        self.help = help
        self.samples: List[PromSample] = []
        #: sample name -> (exemplar labels, exemplar value) for samples
        #: carrying an OpenMetrics ``# {...} value`` exemplar suffix.
        self.exemplars: Dict[str, Tuple[Dict[str, str], float]] = {}

    def __repr__(self) -> str:
        return (
            f"PromFamily({self.name}, {self.kind}, "
            f"{len(self.samples)} samples)"
        )


_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_EXEMPLAR = re.compile(r"^\{(.*)\}\s+(\S+)$")


def parse_prometheus_text(text: str) -> Dict[str, PromFamily]:
    """Parse exposition text into ``{family name: PromFamily}``.

    Minimal by design: it understands ``# HELP``, ``# TYPE``, and sample
    lines with optional labels — exactly what
    :func:`repro.telemetry.prometheus_text` emits. Histogram
    ``_bucket``/``_sum``/``_count`` samples attach to their base family.
    Malformed sample lines raise ``ValueError``.
    """
    families: Dict[str, PromFamily] = {}

    def unescape(value: str) -> str:
        return (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )

    def family_for(sample_name: str) -> PromFamily:
        for suffix in ("", "_bucket", "_sum", "_count"):
            if suffix and not sample_name.endswith(suffix):
                continue
            base = sample_name[: len(sample_name) - len(suffix)] \
                if suffix else sample_name
            if base in families:
                return families[base]
        return families.setdefault(sample_name, PromFamily(sample_name))

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            __, __, rest = line.partition("# HELP ")
            name, __, help_text = rest.partition(" ")
            families.setdefault(name, PromFamily(name)).help = help_text
        elif line.startswith("# TYPE "):
            __, __, rest = line.partition("# TYPE ")
            name, __, kind = rest.partition(" ")
            families.setdefault(name, PromFamily(name)).kind = kind.strip()
        elif line.startswith("#"):
            continue
        else:
            # An OpenMetrics exemplar rides after the sample value as
            # ``... # {labels} value``; split it off before matching.
            sample_part, __, exemplar_part = line.partition(" # ")
            match = _SAMPLE.match(sample_part)
            if match is None:
                raise ValueError(f"malformed sample line: {line!r}")
            name, raw_labels, raw_value = match.groups()
            labels = {
                key: unescape(value)
                for key, value in _LABEL.findall(raw_labels or "")
            }
            family = family_for(name)
            family.samples.append((name, labels, float(raw_value)))
            if exemplar_part:
                ex_match = _EXEMPLAR.match(exemplar_part)
                if ex_match is None:
                    raise ValueError(f"malformed exemplar: {line!r}")
                ex_labels = {
                    key: unescape(value)
                    for key, value in _LABEL.findall(ex_match.group(1))
                }
                key = labels.get("le", "")
                family.exemplars[f"{name}{{le={key}}}"] = (
                    ex_labels, float(ex_match.group(2))
                )
    return families
