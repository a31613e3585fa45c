"""The continuous-benchmark harness: canonical artifacts, numbering,
and direction-aware regression detection."""

import json

import pytest

from repro.bench import (
    BenchRun,
    Delta,
    compare_payloads,
    discover_artifacts,
    moved_metrics,
    publish,
    run_suite,
)
from repro.bench.__main__ import _report, main
from repro.eval.registry import EXPERIMENTS, Experiment, SelectionError, select
from repro.eval.report import LOWER, Metric, violated


def _payload(**metric_values):
    """A minimal one-experiment payload with the given tracked metrics,
    each given as ``(value, better)``."""
    metrics = {
        name: {"value": value, "better": better, "unit": ""}
        for name, (value, better) in metric_values.items()
    }
    return {
        "format": 1,
        "seed": None,
        "experiments": {
            "ex": {"title": "example", "metrics": metrics},
        },
    }


def _register_fake(monkeypatch, accept=None):
    """Make the registry one instant seeded experiment (its report is its
    seed), so ``main`` runs whole suites in no time."""
    fake = Experiment(
        "fake", "FAKE: a stand-in", "a stand-in", lambda seed=5: seed, str,
        metrics=lambda report: {"latency": Metric(float(report), LOWER, "s")},
        accept=accept)
    monkeypatch.setattr("repro.eval.registry.EXPERIMENTS", (fake,))


def _second_claim_breaks(report):
    return violated((report == 5, "the report is its seed"),
                    (report > 5, "the second claim holds"))


class TestSuite:
    def test_registry_covers_at_least_ten_experiments(self):
        assert len(select(benchmarked=True)) >= 10
        assert len({row.key for row in EXPERIMENTS}) == len(EXPERIMENTS)

    def test_list_is_the_registry_rows_with_metrics_in_order(self, capsys):
        assert main(["prog", "--list"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == [row.key for row in EXPERIMENTS
                          if row.metrics is not None]

    def test_unknown_key_is_named(self):
        # t1 is registered but not benchmarked: unknown to the suite too.
        with pytest.raises(SelectionError, match="nope, t1"):
            run_suite(keys=["e1", "nope", "t1"])

    def test_same_seed_same_canonical_bytes(self):
        first = run_suite(keys=["e1", "e3"])
        second = run_suite(keys=["e1", "e3"])
        assert first.canonical_bytes() == second.canonical_bytes()
        # The seed enters the payload, so a different seed is a
        # different artifact even when every metric happens to agree.
        reseeded = run_suite(seed=99, keys=["e1", "e3"])
        assert reseeded.canonical_bytes() != first.canonical_bytes()

    def test_worker_processes_do_not_change_the_payload(self):
        keys = ["e1", "e3", "e7"]
        serial = run_suite(keys=keys)
        pooled = run_suite(keys=keys, jobs=2)
        assert pooled.canonical_bytes() == serial.canonical_bytes()
        assert pooled.violations == serial.violations
        assert list(pooled.wall_clock) == keys  # assembled in row order

    def test_zero_jobs_is_a_usage_error(self, capsys):
        assert main(["prog", "-j", "0", "e1"]) == 2
        assert "-j requires a positive integer" in capsys.readouterr().err

    def test_wall_clock_never_enters_the_artifact(self):
        run = run_suite(keys=["e1"])
        assert run.wall_clock  # measured...
        text = run.canonical_bytes().decode()
        payload = json.loads(text)
        assert "wall_clock" not in text
        assert set(payload) == {"format", "seed", "experiments"}

    def test_canonical_json_is_sorted(self):
        run = BenchRun(seed=None, payload=_payload(m=(1.0, "lower")))
        text = run.canonical_bytes().decode()
        assert json.loads(text) == run.payload
        assert text == json.dumps(
            run.payload, sort_keys=True, indent=2
        ) + "\n"


class TestArtifactHistory:
    def test_numbering_and_unchanged_detection(self, tmp_path):
        run = BenchRun(seed=None, payload=_payload(m=(1.0, "lower")))
        first = publish(run, tmp_path)
        assert first.written == tmp_path / "BENCH_1.json"
        assert first.compared_against is None
        # Identical payload: nothing written, compared against BENCH_1.
        again = publish(run, tmp_path)
        assert again.unchanged
        assert again.written is None
        assert again.compared_against == tmp_path / "BENCH_1.json"
        assert discover_artifacts(tmp_path) == [
            (1, tmp_path / "BENCH_1.json")
        ]
        # A changed payload gets the next number.
        moved = BenchRun(seed=None, payload=_payload(m=(1.1, "lower")))
        third = publish(moved, tmp_path)
        assert third.written == tmp_path / "BENCH_2.json"
        assert [n for n, __ in discover_artifacts(tmp_path)] == [1, 2]

    def test_regression_flags_latency_up_and_throughput_down(self, tmp_path):
        baseline = BenchRun(seed=None, payload=_payload(
            latency=(1.0, "lower"), throughput=(100.0, "higher"),
            note=(5.0, "info"),
        ))
        publish(baseline, tmp_path)
        regressed = BenchRun(seed=None, payload=_payload(
            latency=(1.5, "lower"),       # +50% on lower-is-better
            throughput=(70.0, "higher"),  # -30% on higher-is-better
            note=(50.0, "info"),          # info metrics never regress
        ))
        outcome = publish(regressed, tmp_path)
        assert {(d.metric, d.regressed) for d in outcome.deltas} == {
            ("latency", True), ("throughput", True),
        }
        assert len(outcome.regressions) == 2

    def test_small_moves_and_improvements_do_not_flag(self, tmp_path):
        baseline = BenchRun(seed=None, payload=_payload(
            latency=(1.0, "lower"), throughput=(100.0, "higher"),
        ))
        publish(baseline, tmp_path)
        improved = BenchRun(seed=None, payload=_payload(
            latency=(0.5, "lower"),        # big improvement
            throughput=(115.0, "higher"),  # +15%: inside the band
        ))
        outcome = publish(improved, tmp_path)
        assert outcome.regressions == []
        latency = next(d for d in outcome.deltas if d.metric == "latency")
        assert latency.improved and not latency.regressed


    def test_every_moved_key_is_named_and_none_is_a_regression(
            self, tmp_path):
        """A digest held in its unit, a 5% move, an added and a removed
        metric are all listed as moved; an unmoved one is not, the gate
        sees no regression, and the report prints each line."""
        old = _payload(latency=(1.0, "lower"), steady=(2.0, "higher"),
                       gone=(3.0, "info"))
        old["experiments"]["ex"]["metrics"]["digest"] = {
            "value": 0.0, "better": "info", "unit": "aaaa"}
        publish(BenchRun(seed=None, payload=old), tmp_path)
        new = _payload(latency=(1.05, "lower"), steady=(2.0, "higher"),
                       added=(4.0, "info"))
        new["experiments"]["ex"]["metrics"]["digest"] = {
            "value": 0.0, "better": "info", "unit": "bbbb"}
        outcome = publish(BenchRun(seed=None, payload=new), tmp_path)
        assert outcome.moved == moved_metrics(old, new) == [
            "ex.added: (absent) -> 4.0",
            "ex.digest: 0.0 aaaa -> 0.0 bbbb",
            "ex.gone: 3.0 -> (absent)",
            "ex.latency: 1.0 -> 1.05",
        ]
        assert outcome.regressions == []
        report = _report(outcome)
        assert "moved: 4 metrics changed value or unit, or came or went" in (
            report)
        for line in outcome.moved:
            assert f"  {line}" in report
        assert "no regressions" in report

    def test_alternate_seed_run_publishes_nothing(
            self, tmp_path, monkeypatch, capsys):
        _register_fake(monkeypatch)
        assert main(["prog", "--seed", "42", "--output-dir",
                     str(tmp_path)]) == 0
        assert list(tmp_path.iterdir()) == []
        out = capsys.readouterr().out
        assert "seed 42 run (fake); artifact not published" in out
        assert "42.0" in out  # the metrics are still printed


class TestClaims:
    def test_violation_names_the_experiment_and_the_claim(self, monkeypatch):
        _register_fake(monkeypatch, accept=_second_claim_breaks)
        run = run_suite()
        assert run.violations == {"fake": ["the second claim holds"]}
        assert run.claim_lines() == [
            "claims: 1 experiments checked, 1 claims violated",
            "  fake: VIOLATED the second claim holds",
        ]
        assert "claims" not in run.canonical_bytes().decode()

    def test_check_fails_on_a_violated_claim(
            self, tmp_path, monkeypatch, capsys):
        _register_fake(monkeypatch, accept=_second_claim_breaks)
        out_dir = ["--output-dir", str(tmp_path)]
        assert main(["prog"] + out_dir) == 0  # reported, not gated
        assert "fake: VIOLATED the second claim holds" in (
            capsys.readouterr().out)
        # No regression against the artifact just written: the claim
        # alone turns the exit code.
        assert main(["prog", "--check"] + out_dir) == 1
        assert "artifact unchanged" in capsys.readouterr().out

    def test_check_passes_when_every_claim_holds(
            self, tmp_path, monkeypatch, capsys):
        _register_fake(monkeypatch, accept=lambda report: violated(
            (report == 5, "the report is its seed")))
        assert main(["prog", "--check", "--output-dir", str(tmp_path)]) == 0
        assert "claims: 1 experiments checked, 0 claims violated" in (
            capsys.readouterr().out)

    def test_subset_runs_print_and_gate_claims_too(self, monkeypatch, capsys):
        _register_fake(monkeypatch, accept=_second_claim_breaks)
        assert main(["prog", "fake"]) == 0
        assert "fake: VIOLATED the second claim holds" in (
            capsys.readouterr().out)
        assert main(["prog", "--check", "fake"]) == 1


class TestCompare:
    def test_new_experiments_and_metrics_are_skipped(self):
        old = _payload(kept=(1.0, "lower"))
        new = _payload(kept=(1.0, "lower"), added=(9.0, "lower"))
        new["experiments"]["brand-new"] = {
            "title": "n", "metrics": {"x": {
                "value": 1.0, "better": "lower", "unit": ""}},
        }
        deltas = compare_payloads(old, new)
        assert [d.metric for d in deltas] == ["kept"]

    def test_zero_baseline_is_not_a_division_crash(self):
        delta = Delta("ex", "m", old=0.0, new=0.0, better="lower", unit="")
        assert delta.relative == 0.0 and not delta.regressed
        grew = Delta("ex", "m", old=0.0, new=1.0, better="lower", unit="")
        assert grew.relative == float("inf") and grew.regressed

    def test_metric_payload_shape(self):
        assert Metric(3.0, "lower", "s").payload() == {
            "value": 3.0, "better": "lower", "unit": "s",
        }
