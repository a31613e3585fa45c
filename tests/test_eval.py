"""Tests for the evaluation harness (small configurations)."""

import pathlib
import re

import pytest

from repro.eval.__main__ import main
from repro.eval.analytics import format_analytics, run_analytics
from repro.eval.compiler import format_compiler, run_compiler
from repro.eval.corfu import format_corfu, run_corfu
from repro.eval.efficiency import format_efficiency, run_efficiency
from repro.eval.fail2ban import format_fail2ban, run_fail2ban
from repro.eval.figures import format_figures, run_figures
from repro.eval.kvssd import format_kvssd, run_kvssd
from repro.eval.loadbalancer import format_loadbalancer, run_loadbalancer
from repro.eval.p2pdma import _run_pipelined
from repro.eval.pointer_chase import format_pointer_chase, run_pointer_chase
from repro.eval.predictability import format_predictability, run_predictability
from repro.eval.recovery import format_recovery, run_recovery
from repro.eval.reconfig import format_reconfig, run_reconfig
from repro.eval.registry import EXPERIMENTS, Experiment, select
from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table
from repro.eval.table1 import run_table1, table1_categories
from repro.eval.translation import format_translation, run_translation
from repro.hw.nvme import Namespace, NvmeController
from repro.hw.pcie.link import PcieLink
from repro.sim import Simulator


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Registry keys whose documentation row ids are not ``key.upper()``.
DOC_ROW_IDS = {"p2p": ["EXT-p2p"], "telemetry": ["TEL"], "f12": ["F1", "F2"]}

#: Rows whose default-config run costs most of a second or more here
#: (p2p 0.8 s, E19 1.6 s, E20 6 s, E16 8 s): their claims are left to the
#: CI bench job (``repro.bench --check``); tier-1 checks every other row.
BENCH_JOB_ONLY = {"e16", "e19", "e20", "p2p"}


def _table_row_ids(markdown: str):
    """First cells of every table row, emphasis stripped (``E18/SIM``
    counts as both ``E18`` and ``SIM``)."""
    ids = set()
    for cell in re.findall(r"^\| *\**([A-Za-z0-9/-]+)\** *\|", markdown, re.M):
        ids.update(cell.split("/"))
    return ids


class TestRegistry:
    def test_list_is_the_registry_in_order(self, capsys):
        assert main(["prog", "--list"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == [row.key for row in EXPERIMENTS]

    def test_worker_processes_print_the_same_bytes(self, capsys):
        assert main(["prog", "e1", "t1", "e7"]) == 0
        serial = capsys.readouterr().out
        assert main(["prog", "-j", "2", "e1", "t1", "e7"]) == 0
        assert capsys.readouterr().out == serial != ""

    def test_metrics_are_directional(self):
        # The cheap rows only; the full suite runs under repro.bench.
        for row in select(["e1", "e6", "e7", "e10", "telemetry"]):
            tracked = row.metrics(row.execute())
            assert tracked, row.key
            for name, metric in tracked.items():
                assert isinstance(metric, Metric), (row.key, name)
                assert metric.better in (LOWER, HIGHER, INFO), (row.key, name)

    def test_seed_reaches_exactly_the_runs_that_take_it(self):
        seeded = Experiment("s", "S", None, lambda seed=1: seed, str)
        fixed = Experiment("f", "F", None, lambda: "fixed", str)
        assert seeded.execute(42) == 42 and seeded.execute() == 1
        assert fixed.execute(42) == "fixed"
        assert {row.key for row in EXPERIMENTS if row.seeded} == {
            "e2", "e3", "e4", "e5", "e13", "e15", "e16", "e17", "e19", "e20",
            "trace"}

    @pytest.mark.parametrize(
        "row", [row for row in EXPERIMENTS
                if row.accept is not None and row.key not in BENCH_JOB_ONLY],
        ids=lambda row: row.key)
    def test_default_report_meets_its_claims(self, row):
        assert row.accept(row.execute()) == []

    def test_every_benchmarked_row_has_claims_checked_somewhere(self):
        # Parametrized above or named in BENCH_JOB_ONLY, which the bench
        # job runs: rows with ``metrics`` are exactly the rows with claims.
        with_claims = {row.key for row in EXPERIMENTS
                       if row.accept is not None}
        assert with_claims == {row.key for row in select(benchmarked=True)}
        assert BENCH_JOB_ONLY <= with_claims

    def test_every_experiment_has_its_doc_rows(self):
        design = (ROOT / "DESIGN.md").read_text()
        index = design[design.index("\n## 3. "):design.index("\n## 4. ")]
        documents = {
            "DESIGN.md §3": _table_row_ids(index),
            "EXPERIMENTS.md": _table_row_ids(
                (ROOT / "EXPERIMENTS.md").read_text()),
        }
        missing = [
            f"{row.key}: no {row_id} row in {name}"
            for row in EXPERIMENTS
            for row_id in DOC_ROW_IDS.get(row.key, [row.key.upper()])
            for name, ids in documents.items() if row_id not in ids
        ]
        assert not missing, missing


class TestReportTable:
    def test_render(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", True)
        text = table.render()
        assert "Demo" in text
        assert "2.50" in text
        assert "yes" in text

    def test_wrong_width(self):
        with pytest.raises(ValueError):
            Table("t", ["a"]).add_row(1, 2)


class TestTable1:
    def test_seven_rows(self):
        assert len(table1_categories()) == 7
        assert len(run_table1().rows) == 7

    def test_hyperion_is_only_complete(self):
        complete = [c.name for c in table1_categories() if not c.missing_legs()]
        assert complete == ["Hyperion (this work)"]

    def test_every_surveyed_category_misses_something(self):
        for category in table1_categories():
            if "Hyperion" not in category.name:
                assert category.missing_legs(), category.name

    def test_commercial_dpus_cpu_centric(self):
        dpus = next(c for c in table1_categories() if "Commercial" in c.name)
        assert "CPU mediates" in "; ".join(dpus.missing_legs())

    def test_render(self):
        text = run_table1().render()
        assert "GPU-with-network" in text
        assert "Hyperion (this work)" in text


class TestFiguresAndEfficiency:
    def test_figures_ok(self):
        report = run_figures()
        assert report.ok, report.mismatches
        assert "nvme-host-ip" in format_figures(report)

    def test_efficiency_bands(self):
        report = run_efficiency()
        assert report.energy_in_band
        assert report.volume_in_band
        assert report.hyperion_tdp_w == pytest.approx(230.0)
        assert "4-8x" in format_efficiency(report)


class TestPointerChaseShape:
    def test_offload_wins_and_scales_with_depth(self):
        points = run_pointer_chase(key_counts=(16, 1024), propagations=(10e-6,))
        shallow, deep = points
        assert deep.tree_height > shallow.tree_height
        assert deep.speedup > shallow.speedup
        assert all(p.offload_latency < p.client_side_latency for p in points)

    def test_client_rtts_track_height(self):
        points = run_pointer_chase(key_counts=(256,), propagations=(1e-6,))
        assert points[0].client_side_rtts == points[0].tree_height + 1

    def test_format(self):
        text = format_pointer_chase(
            run_pointer_chase(key_counts=(16,), propagations=(1e-6,))
        )
        assert "speedup" in text


class TestFail2BanShape:
    def test_dpu_wins_with_identical_verdicts(self):
        dpu, base = run_fail2ban(packet_count=300)
        assert dpu.banned == base.banned
        assert dpu.total_time < base.total_time
        assert "speedup" in format_fail2ban([dpu, base])


class TestP2pShape:
    def test_a_failed_transfer_fails_the_run(self):
        """A transfer whose NVMe write fails must not vanish from the
        row: with the transfers' handles dropped, the run reported the
        last completion of the transfers that did not fail."""
        sim = Simulator()
        ssd = NvmeController(sim, "ssd")
        ssd.add_namespace(Namespace(1, 1))  # room for the first block only
        qp = ssd.create_queue_pair()
        ssd.start()

        def control(size):
            yield sim.timeout(1e-6)

        with pytest.raises(AssertionError):
            _run_pipelined("bounce", 4096, 2, control, PcieLink(sim, lanes=4),
                           sim, qp)


class TestLoadBalancerShape:
    def test_overflow_prevents_breakage(self):
        overflow, drop = run_loadbalancer(packet_count=1000, flow_count=300,
                                          dram_entries=32)
        assert overflow.broken_connections == 0
        assert drop.broken_connections > 0
        assert overflow.cold_hits > 0
        assert drop.flash_state_bytes == 0
        assert "overflow" in format_loadbalancer([overflow, drop])


class TestTranslationShape:
    def test_gap_grows_with_working_set(self):
        small, large = run_translation(
            working_sets=(1 << 20, 128 << 20), accesses=4000
        )
        assert large.segment_advantage > small.segment_advantage
        assert large.tlb_hit_rate < small.tlb_hit_rate
        assert "advantage" in format_translation([small, large])


class TestPredictabilityShape:
    def test_pipeline_has_zero_jitter(self):
        hw, cpu = run_predictability(runs=200)
        # effectively zero: only float rounding noise, ~14 orders below ns
        assert hw.stddev_latency < 1e-15
        assert hw.jitter_ratio == pytest.approx(1.0)
        assert cpu.stddev_latency > 0
        assert cpu.jitter_ratio > 1.0
        assert hw.energy_per_op_j < cpu.energy_per_op_j
        assert "p99/p50" in format_predictability([hw, cpu])


class TestReconfigShape:
    def test_latencies_in_band(self):
        report = run_reconfig(tenants=6)
        assert report.granted == 6
        assert report.in_band_fraction == 1.0
        assert 10e-3 <= report.mean_reconfig <= 100e-3
        assert "ICAP" in format_reconfig(report)


class TestCorfuShape:
    def test_throughput_scales_and_failover_works(self):
        points = run_corfu(client_counts=(1, 4), appends_per_client=10)
        assert points[1].throughput > points[0].throughput * 2
        assert all(p.failover_reads_ok for p in points)
        assert "appends/s" in format_corfu(points)


class TestAnalyticsShape:
    def test_dpu_advantage_grows_with_size(self):
        small, large = run_analytics(row_counts=(1000, 50000))
        assert small.answers_agree and large.answers_agree
        assert large.speedup > small.speedup
        assert large.speedup > 1.5
        assert "agree" in format_analytics([small, large])


class TestCompilerShape:
    def test_verifier_splits_corpus_correctly(self):
        rows = run_compiler()
        for row in rows:
            assert row.verified == row.expected_ok, row.name

    def test_fusion_never_hurts_depth_or_ffs(self):
        for row in run_compiler():
            if row.verified:
                assert row.depth_fused <= row.depth_unfused
                assert row.ffs_fused <= row.ffs_unfused

    def test_fusion_helps_somewhere(self):
        rows = [r for r in run_compiler() if r.verified]
        assert any(r.depth_fused < r.depth_unfused for r in rows)
        assert "fusion" in format_compiler(rows)


class TestRecoveryShape:
    def test_recovery_correct_at_all_sizes(self):
        points = run_recovery(durable_counts=(5, 50))
        for p in points:
            assert p.recovered_segments == p.durable_segments
            assert p.data_intact
            assert p.ephemeral_gone
        assert points[1].persist_bytes > points[0].persist_bytes
        assert "persistence" in format_recovery(points)


class TestKvssdShape:
    def test_transport_ordering(self):
        points = {p.transport: p for p in run_kvssd(operations=30)}
        assert points["udp"].mean_get < points["tcp"].mean_get
        assert points["homa"].mean_get < points["tcp"].mean_get
        assert points["rdma(read)"].mean_get < points["udp"].mean_get
        assert "transport" in format_kvssd(list(points.values()))
