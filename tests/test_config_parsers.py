"""The two text-config parsers: workload specs and SLO rules.

Both read quantities through the one :func:`repro.common.units.parse_quantity`
and either return an object whose every number is finite or raise
:class:`ConfigurationError` naming what was wrong; never a bare
``ValueError``, ``IndexError`` or ``TypeError``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.units import parse_quantity
from repro.telemetry import slo
from repro.telemetry.slo import SloRule
from repro.workload import spec
from repro.workload.spec import BurstCurve, DiurnalCurve, StepCurve, WorkloadSpec

TENANT = "tenant web mix get=0.8,put=0.2 curve steady rate=1000"


def test_one_quantity_parser():
    assert slo.parse_quantity is spec.parse_quantity is parse_quantity
    assert not hasattr(slo, "_quantity") and not hasattr(slo, "_UNITS")
    assert not hasattr(spec, "_UNITS")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "nanms", "infs", "1e999"])
def test_a_non_finite_quantity_is_named(text):
    with pytest.raises(ConfigurationError, match=repr(text)):
        parse_quantity(text)


@pytest.mark.parametrize("text, message", [
    (f"keys many\n{TENANT}", "line 1: keys must be an integer, got 'many'"),
    (f"zipf nan\n{TENANT}", "line 1: quantity 'nan' is not finite"),
    (TENANT.replace("1000", "nan"), "line 1: quantity 'nan' is not finite"),
    (TENANT.replace("1000", "inf"), "line 1: quantity 'inf' is not finite"),
    (f"keys 8\n{TENANT} value_size=2.7",
     "line 2: value_size must be an integer, got '2.7'"),
    (f"keys 8\n\n{TENANT.replace('1000', '0')}",
     "line 3: steady rate must be positive"),
])
def test_a_bad_workload_line_is_named(text, message):
    with pytest.raises(ConfigurationError) as caught:
        WorkloadSpec.parse(text)
    assert str(caught.value) == f"workload spec {message}"


@pytest.mark.parametrize("text", [
    "a.b p99 < nan",
    "a.b p99 < 2ms for nanms",
    "a.b p99 < fast",
    "a.b p99 < inf",
])
def test_a_bad_slo_quantity_is_named(text):
    with pytest.raises(ConfigurationError, match="cannot parse SLO rule"):
        SloRule.parse(text)


# -- generated token sequences ------------------------------------------------

NUMBERS = st.sampled_from([
    "0", "1", "2.7", "-1", "64", "1e3", "1e999", "nan", "inf", "-inf",
    "5ms", "nanms", "2us", "s", "ms", "", "many", "0.5", "1.0"])
WORDS = st.sampled_from([
    "keys", "zipf", "tenant", "web", "mix", "curve", "steady", "diurnal",
    "burst", "step", "get=1.0", "get=0.5,put=0.5", "scan=nan", "rate=",
    "=", "#", "for", "p99", "mean", "value", "<", ">=", "a.b"])
KEYED = st.builds(
    "{}={}".format,
    st.sampled_from(["rate", "trough", "peak", "period", "phase", "base",
                     "burst", "at", "dur", "scan_span", "analytics_span",
                     "value_size", "get", "0"]),
    NUMBERS)
TOKENS = st.lists(st.one_of(WORDS, NUMBERS, KEYED), max_size=12)
LINES = st.lists(TOKENS.map(" ".join), min_size=1, max_size=4)


def _workload_numbers(parsed):
    yield parsed.key_count
    yield parsed.zipf_skew
    for tenant in parsed.tenants:
        yield from tenant.mix.fractions()
        yield from (tenant.scan_span, tenant.analytics_span, tenant.value_size)
        curve = tenant.curve
        if isinstance(curve, DiurnalCurve):
            yield from (curve.trough, curve.peak, curve.period, curve.phase)
        elif isinstance(curve, BurstCurve):
            yield from (curve.base, curve.burst, curve.at, curve.duration)
        elif isinstance(curve, StepCurve):
            for start, rate in curve.steps:
                yield from (start, rate)
        else:
            yield curve.steady


def _valid_tenant_lines():
    """Well-formed tenant lines with generated numbers in their slots."""
    return st.builds(
        "tenant t{} mix get={} curve {}".format,
        st.integers(0, 3), NUMBERS,
        st.one_of(
            NUMBERS.map("steady rate={}".format),
            st.builds("diurnal trough={} peak={} period={}".format,
                      NUMBERS, NUMBERS, NUMBERS),
            st.builds("burst base={} burst={} at={} dur={}".format,
                      NUMBERS, NUMBERS, NUMBERS, NUMBERS),
            st.builds("step 0={},{}={}".format, NUMBERS, NUMBERS, NUMBERS),
        ))


@settings(max_examples=300, deadline=None)
@given(lines=st.one_of(LINES, st.lists(
    st.one_of(_valid_tenant_lines(), TOKENS.map(" ".join)),
    min_size=1, max_size=4)))
def test_workload_spec_parses_finite_or_names_the_error(lines):
    try:
        parsed = WorkloadSpec.parse("\n".join(lines))
    except ConfigurationError:
        return
    assert all(math.isfinite(n) for n in _workload_numbers(parsed))


@settings(max_examples=300, deadline=None)
@given(tokens=st.one_of(
    TOKENS,
    st.builds(lambda stat, op, threshold, tail: [
        "a.b", stat, op, threshold, *tail],
        st.sampled_from(["p99", "mean", "rate", "value", "bogus"]),
        st.sampled_from(["<", "<=", ">", ">=", "=="]),
        NUMBERS,
        st.one_of(st.just([]), NUMBERS.map(lambda n: ["for", n]))),
))
def test_slo_rule_parses_finite_or_names_the_error(tokens):
    try:
        rule = SloRule.parse(" ".join(tokens))
    except ConfigurationError:
        return
    assert math.isfinite(rule.threshold) and math.isfinite(rule.for_duration)
    assert rule.for_duration >= 0


def test_the_preview_cli_exits_2_with_one_line(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text(f"keys 8\n{TENANT.replace('1000', 'nan')}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-m", "repro.workload", "--spec", str(bad)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("python -m repro.workload: workload spec line 2: "
                           "quantity 'nan' is not finite\n")
