"""Declarative workload specs: tenants × operation mixes × arrival curves.

A workload is described in a small line-oriented text format (one
tenant per line, ``#`` comments), so scenarios live in docs and tests
as readable strings rather than code:

>>> spec = WorkloadSpec.parse('''
... keys 128
... zipf 1.0
... tenant web    mix get=0.78,put=0.22 curve diurnal trough=4000 peak=28000 period=240ms
... tenant batch  mix scan=0.7,analytics=0.3 curve steady rate=800
... ''')
>>> [t.name for t in spec.tenants]
['web', 'batch']
>>> spec.tenants[0].curve.rate(0.0)
4000.0
>>> spec.tenants[0].curve.rate(0.120)  # midday == peak
28000.0
>>> round(spec.peak_rate())
28800

Rates are operations per simulated second; durations accept the same
``ns/us/ms/s`` suffixes as SLO rules.  See ``docs/WORKLOADS.md`` for
the full authoring guide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError

__all__ = [
    "OpMix",
    "SteadyCurve",
    "DiurnalCurve",
    "BurstCurve",
    "StepCurve",
    "TenantSpec",
    "WorkloadSpec",
    "parse_quantity",
]

_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

#: Operation kinds a mix may reference, in canonical order.
OP_KINDS = ("get", "put", "scan", "analytics")


def parse_quantity(text: str) -> float:
    """``"2ms"`` -> 0.002, ``"150us"`` -> 1.5e-4; bare numbers pass through."""
    for suffix in sorted(_UNITS, key=len, reverse=True):
        if text.endswith(suffix):
            head = text[: -len(suffix)]
            if head:
                try:
                    return float(head) * _UNITS[suffix]
                except ValueError:
                    break
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse quantity {text!r}") from None


@dataclass(frozen=True)
class OpMix:
    """Per-tenant operation mix as fractions that must sum to 1.

    >>> mix = OpMix(get=0.9, put=0.1)
    >>> from random import Random
    >>> rng = Random("doc/mix")
    >>> sorted({mix.pick(rng) for _ in range(50)})
    ['get', 'put']
    """

    get: float = 0.0
    put: float = 0.0
    scan: float = 0.0
    analytics: float = 0.0

    def __post_init__(self) -> None:
        fractions = self.fractions()
        if any(f < 0 for f in fractions):
            raise ConfigurationError("op-mix fractions must be >= 0")
        total = sum(fractions)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ConfigurationError(
                f"op-mix fractions must sum to 1 (got {total!r})"
            )

    def fractions(self) -> Tuple[float, float, float, float]:
        """The four fractions in canonical ``OP_KINDS`` order."""
        return (self.get, self.put, self.scan, self.analytics)

    def pick(self, rng) -> str:
        """Draw one op kind from *rng* according to the fractions."""
        roll = rng.random()
        acc = 0.0
        for kind, fraction in zip(OP_KINDS, self.fractions()):
            acc += fraction
            if roll < acc:
                return kind
        return OP_KINDS[-1]

    def describe(self) -> str:
        """Canonical ``get=0.9,put=0.1`` form (zero fractions omitted)."""
        return ",".join(
            f"{kind}={fraction!r}"
            for kind, fraction in zip(OP_KINDS, self.fractions())
            if fraction > 0
        )


class _Curve:
    """Base for arrival curves: rate(t) in ops/s over the sim clock."""

    def rate(self, t: float) -> float:
        raise NotImplementedError

    @property
    def peak_rate(self) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SteadyCurve(_Curve):
    """Constant arrival rate."""

    steady: float

    def __post_init__(self) -> None:
        if self.steady <= 0:
            raise ConfigurationError("steady rate must be positive")

    def rate(self, t: float) -> float:
        return self.steady

    @property
    def peak_rate(self) -> float:
        return self.steady

    def describe(self) -> str:
        return f"steady rate={self.steady!r}"


@dataclass(frozen=True)
class DiurnalCurve(_Curve):
    """A compressed day: cosine ramp trough → peak → trough over *period*.

    ``rate(0) == trough``, ``rate(period / 2) == peak``; *phase* shifts
    the whole curve by a fraction of the period (0.25 puts the peak at
    three-quarters of the day — an "evening" tenant).
    """

    trough: float
    peak: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.trough <= 0 or self.peak < self.trough:
            raise ConfigurationError(
                "diurnal curve needs 0 < trough <= peak"
            )
        if self.period <= 0:
            raise ConfigurationError("diurnal period must be positive")

    def rate(self, t: float) -> float:
        angle = 2.0 * math.pi * (t / self.period - self.phase)
        shape = (1.0 - math.cos(angle)) / 2.0
        return self.trough + (self.peak - self.trough) * shape

    @property
    def peak_rate(self) -> float:
        return self.peak

    def describe(self) -> str:
        tail = f" phase={self.phase!r}" if self.phase else ""
        return (
            f"diurnal trough={self.trough!r} peak={self.peak!r} "
            f"period={self.period!r}{tail}"
        )


@dataclass(frozen=True)
class BurstCurve(_Curve):
    """A flat base rate with one rectangular burst window."""

    base: float
    burst: float
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.base <= 0 or self.burst < self.base:
            raise ConfigurationError("burst curve needs 0 < base <= burst")
        if self.at < 0 or self.duration <= 0:
            raise ConfigurationError(
                "burst window needs at >= 0 and duration > 0"
            )

    def rate(self, t: float) -> float:
        if self.at <= t < self.at + self.duration:
            return self.burst
        return self.base

    @property
    def peak_rate(self) -> float:
        return self.burst

    def describe(self) -> str:
        return (
            f"burst base={self.base!r} burst={self.burst!r} "
            f"at={self.at!r} dur={self.duration!r}"
        )


@dataclass(frozen=True)
class StepCurve(_Curve):
    """Piecewise-constant rate: ``((start, rate), ...)``, first start 0."""

    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigurationError("step curve needs at least one step")
        if self.steps[0][0] != 0:
            raise ConfigurationError("step curve must start at t=0")
        last = -1.0
        for start, rate in self.steps:
            if start <= last:
                raise ConfigurationError(
                    "step starts must be strictly increasing"
                )
            if rate <= 0:
                raise ConfigurationError("step rates must be positive")
            last = start

    def rate(self, t: float) -> float:
        current = self.steps[0][1]
        for start, rate in self.steps:
            if t < start:
                break
            current = rate
        return current

    @property
    def peak_rate(self) -> float:
        return max(rate for _, rate in self.steps)

    def describe(self) -> str:
        body = ",".join(f"{s!r}={r!r}" for s, r in self.steps)
        return f"step {body}"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, an op mix, an arrival curve, and op shaping.

    ``scan_span`` is the number of consecutive keys a scan touches;
    ``analytics_span`` the number of Zipf-drawn keys one analytics
    scatter reads; ``value_size`` the put payload in bytes.
    """

    name: str
    mix: OpMix
    curve: _Curve
    scan_span: int = 16
    analytics_span: int = 64
    value_size: int = 64

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ConfigurationError("tenant name must be non-empty, no spaces")
        if self.scan_span < 1 or self.analytics_span < 1:
            raise ConfigurationError("tenant spans must be >= 1")
        if self.value_size < 1:
            raise ConfigurationError("tenant value_size must be >= 1")

    def describe(self) -> str:
        return (
            f"tenant {self.name} mix {self.mix.describe()} "
            f"curve {self.curve.describe()}"
        )


def _parse_kv(tokens: Sequence[str], context: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ConfigurationError(
                f"{context}: expected key=value, got {token!r}"
            )
        key, _, value = token.partition("=")
        if key in out:
            raise ConfigurationError(f"{context}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_mix(text: str, context: str) -> OpMix:
    fractions = {}
    for part in text.split(","):
        kind, _, value = part.partition("=")
        if kind not in OP_KINDS:
            raise ConfigurationError(
                f"{context}: unknown op kind {kind!r} "
                f"(expected one of {', '.join(OP_KINDS)})"
            )
        fractions[kind] = parse_quantity(value)
    return OpMix(**fractions)


def _parse_curve(kind: str, tokens: Sequence[str], context: str) -> _Curve:
    if kind == "steady":
        kv = _parse_kv(tokens, context)
        return SteadyCurve(steady=parse_quantity(kv.pop("rate", "0")))
    if kind == "diurnal":
        kv = _parse_kv(tokens, context)
        return DiurnalCurve(
            trough=parse_quantity(kv.pop("trough", "0")),
            peak=parse_quantity(kv.pop("peak", "0")),
            period=parse_quantity(kv.pop("period", "0")),
            phase=parse_quantity(kv.pop("phase", "0")),
        )
    if kind == "burst":
        kv = _parse_kv(tokens, context)
        return BurstCurve(
            base=parse_quantity(kv.pop("base", "0")),
            burst=parse_quantity(kv.pop("burst", "0")),
            at=parse_quantity(kv.pop("at", "0")),
            duration=parse_quantity(kv.pop("dur", "0")),
        )
    if kind == "step":
        if len(tokens) != 1:
            raise ConfigurationError(
                f"{context}: step curve takes one start=rate,... token"
            )
        steps = []
        for part in tokens[0].split(","):
            start, _, rate = part.partition("=")
            steps.append((parse_quantity(start), parse_quantity(rate)))
        return StepCurve(steps=tuple(steps))
    raise ConfigurationError(
        f"{context}: unknown curve kind {kind!r} "
        "(expected steady, diurnal, burst, or step)"
    )


_TENANT_OPTIONS = ("scan_span", "analytics_span", "value_size")


@dataclass(frozen=True)
class WorkloadSpec:
    """A whole scenario: key universe, skew, and a set of tenants."""

    tenants: Tuple[TenantSpec, ...]
    key_count: int = 128
    zipf_skew: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("workload needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("tenant names must be unique")
        if self.key_count < 1:
            raise ConfigurationError("workload key_count must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        """Parse the line-oriented spec format (see module docstring)."""
        key_count = 128
        zipf_skew = 1.0
        tenants: List[TenantSpec] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            context = f"workload spec line {lineno}"
            if tokens[0] == "keys" and len(tokens) == 2:
                key_count = int(tokens[1])
            elif tokens[0] == "zipf" and len(tokens) == 2:
                zipf_skew = float(tokens[1])
            elif tokens[0] == "tenant":
                tenants.append(cls._parse_tenant(tokens[1:], context))
            else:
                raise ConfigurationError(
                    f"{context}: expected 'keys', 'zipf', or 'tenant', "
                    f"got {tokens[0]!r}"
                )
        return cls(
            tenants=tuple(tenants),
            key_count=key_count,
            zipf_skew=zipf_skew,
        )

    @staticmethod
    def _parse_tenant(tokens: Sequence[str], context: str) -> TenantSpec:
        if len(tokens) < 5 or tokens[1] != "mix" or tokens[3] != "curve":
            raise ConfigurationError(
                f"{context}: expected 'tenant <name> mix <fractions> "
                "curve <kind> <args...>'"
            )
        name = tokens[0]
        mix = _parse_mix(tokens[2], context)
        curve_kind = tokens[4]
        rest = list(tokens[5:])
        options: Dict[str, float] = {}
        while rest and rest[-1].partition("=")[0] in _TENANT_OPTIONS:
            key, _, value = rest.pop().partition("=")
            options[key] = parse_quantity(value)
        curve = _parse_curve(curve_kind, rest, context)
        return TenantSpec(
            name=name,
            mix=mix,
            curve=curve,
            scan_span=int(options.get("scan_span", 16)),
            analytics_span=int(options.get("analytics_span", 64)),
            value_size=int(options.get("value_size", 64)),
        )

    def peak_rate(self) -> float:
        """Sum of the tenants' curve peaks — worst-case offered ops/s."""
        return sum(t.curve.peak_rate for t in self.tenants)

    def rate(self, t: float) -> float:
        """Total offered rate at curve time *t* across every tenant."""
        return sum(t_.curve.rate(t) for t_ in self.tenants)

    def describe(self) -> str:
        """Canonical multi-line echo of the spec (deterministic)."""
        lines = [f"keys {self.key_count}", f"zipf {self.zipf_skew!r}"]
        lines.extend(t.describe() for t in self.tenants)
        return "\n".join(lines)
