"""Tests for repro.verify: client-observed histories, the per-key
linearizability checker, the cheap whole-history invariants, schedule
shrinking, the nemesis plan generators, and a bounded slice of the E19
harness (one chaos-search schedule plus the planted-bug demonstration).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.verify import (
    PB_KEY,
    PB_T_HEAL,
    PB_T_KILL,
    PRIMARY,
    REGIONS,
    _planted_mode,
    _run_sharded_schedule,
)
from repro.faults import FaultKind, FaultPlan
from repro.georep import Consistency
from repro.verify import (
    HistoryRecorder,
    Op,
    OpStatus,
    bounded_staleness,
    check_history,
    check_register,
    final_state_check,
    shrink_plan,
    zero_lost_acks,
)
from repro.verify.history import NULL_HISTORY
from repro.verify.linearizability import BudgetExceeded
from repro.verify.nemesis import geo_plan, primary_kill_plan, sharded_plan


# ---------------------------------------------------------------------------
# histories
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0


class TestHistoryRecorder:
    def test_invoke_resolve_and_counts(self):
        clock = _Clock()
        recorder = HistoryRecorder(clock)
        write = recorder.invoke("c1", "w", b"k", b"v")
        clock.now = 1.0
        write.ok()
        read = recorder.invoke("c1", "r", b"k")
        clock.now = 2.0
        read.ok(b"v")
        lost = recorder.invoke("c2", "w", b"k", b"w")
        lost.indeterminate()
        refused = recorder.invoke("c2", "r", b"k")
        refused.fail()
        assert recorder.counts() == {"ok": 2, "fail": 1, "indeterminate": 1}
        ops = sorted(recorder.ops, key=lambda op: op.index)
        assert [op.index for op in ops] == [0, 1, 2, 3]
        assert ops[0].status is OpStatus.OK
        assert ops[0].invoked == 0.0 and ops[0].completed == 1.0
        assert ops[1].value == b"v"  # reads capture the observed value
        assert ops[2].completed == math.inf  # lost ack never completes
        assert list(recorder.by_key()) == [b"k"]

    def test_double_resolution_rejected(self):
        recorder = HistoryRecorder(_Clock())
        pending = recorder.invoke("c", "w", b"k", b"v")
        pending.ok()
        with pytest.raises(ConfigurationError):
            pending.fail()

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            HistoryRecorder(_Clock()).invoke("c", "x", b"k")

    def test_close_open_ops_marks_indeterminate(self):
        recorder = HistoryRecorder(_Clock())
        recorder.invoke("c", "w", b"k", b"v")
        recorder.invoke("c", "r", b"k")
        assert recorder.close_open_ops() == 2
        assert all(
            op.status is OpStatus.INDETERMINATE and op.completed == math.inf
            for op in recorder.ops
        )

    @pytest.mark.parametrize("action, sent, status", [
        ("w", True, OpStatus.INDETERMINATE),
        ("d", True, OpStatus.INDETERMINATE),
        ("w", False, OpStatus.FAIL),
        ("d", False, OpStatus.FAIL),
        ("r", True, OpStatus.FAIL),
        ("r", False, OpStatus.FAIL),
    ])
    def test_raised_is_the_one_outcome_rule(self, action, sent, status):
        recorder = HistoryRecorder(_Clock())
        op = recorder.invoke("c", action, b"k").raised(sent=sent)
        assert op.status is status
        assert op.completed == (math.inf if status is OpStatus.INDETERMINATE
                                else 0.0)

    def test_raised_defaults_to_a_sent_request(self):
        recorder = HistoryRecorder(_Clock())
        assert recorder.invoke("c", "w", b"k", b"v").raised().status \
            is OpStatus.INDETERMINATE

    def test_null_token_raised_records_nothing(self):
        pending = NULL_HISTORY.invoke("c", "w", b"k", b"v")
        assert pending.raised() is None
        assert pending.raised(sent=False) is None

    def test_canonical_bytes_stable(self):
        def build():
            recorder = HistoryRecorder(_Clock())
            recorder.invoke("c", "w", b"k", b"v").ok(stamp=0.5)
            recorder.invoke("c", "r", b"k").ok(b"v", staleness=1e-3)
            return recorder

        assert build().canonical_bytes() == build().canonical_bytes()
        assert build().digest() == build().digest()
        assert b"stamp=0.5" in build().canonical_bytes()


# ---------------------------------------------------------------------------
# the linearizability checker
# ---------------------------------------------------------------------------

def _op(index, action, value, inv, ret, status=OpStatus.OK, *,
        key=b"k", client="c", stamp=None, staleness=None):
    completed = math.inf if status is OpStatus.INDETERMINATE else ret
    return Op(index, client, action, key, value, status, inv, completed,
              stamp, staleness)


class TestCheckRegister:
    def test_sequential_history_linearizable(self):
        result = check_register([
            _op(0, "w", b"a", 0.0, 1.0),
            _op(1, "r", b"a", 2.0, 3.0),
            _op(2, "w", b"b", 4.0, 5.0),
            _op(3, "r", b"b", 6.0, 7.0),
        ])
        assert result.ok
        assert result.linearization == [0, 1, 2, 3]

    def test_stale_read_flagged_with_witness(self):
        # The read returns a value overwritten strictly before it was
        # invoked — the canonical non-linearizable register history.
        result = check_register([
            _op(0, "w", b"a", 0.0, 1.0),
            _op(1, "w", b"b", 2.0, 3.0),
            _op(2, "r", b"a", 4.0, 5.0),
        ])
        assert not result.ok
        assert result.witness is not None and result.witness.index == 2

    def test_concurrent_writes_may_order_either_way(self):
        # Both writes overlap the read; either serialization is legal.
        ops = [
            _op(0, "w", b"a", 0.0, 10.0),
            _op(1, "w", b"b", 1.0, 3.0),
            _op(2, "r", b"b", 4.0, 5.0),
        ]
        assert check_register(ops).ok
        ops[2] = _op(2, "r", b"a", 4.0, 5.0)
        assert check_register(ops).ok

    def test_indeterminate_write_may_take_effect_or_never(self):
        base = [
            _op(0, "w", b"a", 0.0, 1.0),
            _op(1, "w", b"b", 2.0, None, OpStatus.INDETERMINATE),
        ]
        took_effect = base + [_op(2, "r", b"b", 5.0, 6.0)]
        never_landed = base + [_op(2, "r", b"a", 5.0, 6.0)]
        phantom = base + [_op(2, "r", b"c", 5.0, 6.0)]
        assert check_register(took_effect).ok
        assert check_register(never_landed).ok
        assert not check_register(phantom).ok

    def test_indeterminate_write_cannot_land_before_invocation(self):
        # The lost-ack write was invoked *after* the read completed, so
        # the read can never legally observe it.
        result = check_register([
            _op(0, "r", b"b", 0.0, 1.0),
            _op(1, "w", b"b", 2.0, None, OpStatus.INDETERMINATE),
        ])
        assert not result.ok

    def test_failed_ops_are_excluded(self):
        result = check_register([
            _op(0, "w", b"a", 0.0, 1.0),
            _op(1, "w", b"b", 2.0, 3.0, OpStatus.FAIL),
            _op(2, "r", b"a", 4.0, 5.0),
        ])
        assert result.ok

    def test_delete_reads_back_as_miss(self):
        result = check_register([
            _op(0, "w", b"a", 0.0, 1.0),
            _op(1, "d", None, 2.0, 3.0),
            _op(2, "r", None, 4.0, 5.0),
        ])
        assert result.ok

    def test_stale_tagged_reads_are_exempt(self):
        # A follower read served under an explicit staleness bound is
        # checked against the bound, not against linearizability.
        ops = [
            _op(0, "w", b"a", 0.0, 1.0),
            _op(1, "w", b"b", 2.0, 3.0),
            _op(2, "r", b"a", 4.0, 5.0, staleness=4e-3),
        ]
        assert check_register(ops).ok

    def test_budget_exhaustion_raises(self):
        ops = [
            _op(0, "w", b"a", 0.0, 1.0),
            _op(1, "r", b"a", 2.0, 3.0),
        ]
        with pytest.raises(BudgetExceeded):
            check_register(ops, max_states=0)


class TestCheckHistory:
    def test_per_key_composition(self):
        ops = [
            _op(0, "w", b"a", 0.0, 1.0, key=b"good"),
            _op(1, "r", b"a", 2.0, 3.0, key=b"good"),
            _op(2, "w", b"a", 0.0, 1.0, key=b"bad"),
            _op(3, "w", b"b", 2.0, 3.0, key=b"bad"),
            _op(4, "r", b"a", 4.0, 5.0, key=b"bad"),
        ]
        result = check_history(ops)
        assert not result.ok
        assert [r.key for r in result.violations] == [b"bad"]
        assert result.states > 0

    def test_recorder_accepted_directly(self):
        clock = _Clock()
        recorder = HistoryRecorder(clock)
        recorder.invoke("c", "w", b"k", b"v").ok()
        clock.now = 1.0
        recorder.invoke("c", "r", b"k").ok(b"v")
        assert check_history(recorder).ok


# ---------------------------------------------------------------------------
# cheap invariants
# ---------------------------------------------------------------------------

def _recorded(ops):
    recorder = HistoryRecorder(_Clock())
    recorder.ops.extend(ops)
    return recorder


class TestInvariants:
    def test_lost_acked_write_detected(self):
        history = _recorded([_op(0, "w", b"v", 0.0, 1.0)])
        result = zero_lost_acks(history, {})
        assert not result.ok and len(result.lost) == 1
        assert "lost-ack" in result.lost[0]

    def test_matching_final_state_passes(self):
        history = _recorded([_op(0, "w", b"v", 0.0, 1.0)])
        result = zero_lost_acks(history, {b"k": b"v"})
        assert result.ok and result.checked == 1

    def test_indeterminate_write_makes_key_nonbinding(self):
        # The unacked overwrite may have landed after the acked one —
        # either final value is legal, so the key is skipped, not judged.
        history = _recorded([
            _op(0, "w", b"v", 0.0, 1.0),
            _op(1, "w", b"w", 2.0, None, OpStatus.INDETERMINATE),
        ])
        result = zero_lost_acks(history, {})
        assert result.ok and result.skipped == 1 and result.checked == 0

    def test_winner_ranks_by_server_stamp(self):
        # Server LWW stamps outrank invocation order: the op the system
        # stamped later is the write the sweep must hold.
        history = _recorded([
            _op(0, "w", b"late", 0.0, 1.0, stamp=0.9),
            _op(1, "w", b"early", 2.0, 3.0, stamp=0.4),
        ])
        assert zero_lost_acks(history, {b"k": b"late"}).ok
        assert not zero_lost_acks(history, {b"k": b"early"}).ok

    def test_divergence_after_heal_detected(self):
        history = _recorded([_op(0, "w", b"v", 0.0, 1.0)])
        result = final_state_check(
            history, {"r1": {b"k": b"v"}, "r2": {b"k": b"stale"}},
        )
        assert result.diverged and not result.ok

    def test_bounded_staleness(self):
        history = _recorded([
            _op(0, "r", b"v", 0.0, 1.0, staleness=2e-3),
            _op(1, "r", b"v", 2.0, 3.0, staleness=9e-3),
        ])
        assert bounded_staleness(history, 10e-3) == []
        violations = bounded_staleness(history, 5e-3)
        assert len(violations) == 1 and "op=1" in violations[0]


# ---------------------------------------------------------------------------
# schedule shrinking
# ---------------------------------------------------------------------------

def _noisy_plan():
    plan = FaultPlan(seed=5)
    plan.windowed("culprit", "wan.a->b", FaultKind.WAN_PARTITION, 0.0, 10.0)
    plan.windowed("noise-a", "link0", FaultKind.LINK_DOWN, 1.0, 2.0)
    plan.once("noise-b", "dpu-1", FaultKind.POWER_LOSS, at=3.0)
    plan.probabilistic("noise-c", "uplink", FaultKind.FRAME_DROP,
                       probability=0.5, window=(0.0, 4.0))
    return plan


def _culprit_covers(candidate, at=5.0):
    for spec in candidate.specs:
        if spec.name == "culprit" and spec.window is not None:
            start, end = spec.window
            if start <= at <= end:
                return True
    return False


class TestShrink:
    def test_ddmin_isolates_the_culprit_and_narrows_its_window(self):
        result = shrink_plan(_noisy_plan(), _culprit_covers,
                             min_window=0.5)
        assert [spec.name for spec in result.plan.specs] == ["culprit"]
        assert result.removed_specs == 3
        assert result.narrowed_windows >= 1  # counts accepted halvings
        start, end = result.plan.specs[0].window
        assert start <= 5.0 <= end
        assert 0.5 <= end - start <= 1.0  # locally tight, not degenerate
        assert _culprit_covers(result.plan)  # still violates

    def test_shrink_is_deterministic(self):
        first = shrink_plan(_noisy_plan(), _culprit_covers, min_window=0.5)
        second = shrink_plan(_noisy_plan(), _culprit_covers, min_window=0.5)
        assert first.plan.describe() == second.plan.describe()
        assert first.runs == second.runs

    def test_max_runs_caps_the_search(self):
        result = shrink_plan(_noisy_plan(), _culprit_covers, max_runs=1)
        assert result.runs == 1

    def test_subplan_replays_surviving_spec_draws(self):
        # The injector keys each spec's RNG on {seed}/{name}, so a
        # shrunk plan must not perturb the surviving specs' schedules.
        full = _noisy_plan()
        shrunk = shrink_plan(full, _culprit_covers, min_window=20.0).plan
        by_name = {spec.name: spec for spec in full.specs}
        for spec in shrunk.specs:
            assert spec == by_name[spec.name]


# ---------------------------------------------------------------------------
# the nemesis
# ---------------------------------------------------------------------------

ADDRESSES = ["shard-dpu-0", "shard-dpu-1", "shard-dpu-2"]


class TestNemesis:
    def test_same_seed_same_schedule(self):
        kwargs = dict(horizon=0.25, migration_at=0.1)
        assert (sharded_plan(7, ADDRESSES, **kwargs).describe()
                == sharded_plan(7, ADDRESSES, **kwargs).describe())
        assert (geo_plan(7, REGIONS, PRIMARY, horizon=0.3).describe()
                == geo_plan(7, REGIONS, PRIMARY, horizon=0.3).describe())

    def test_different_seeds_differ(self):
        assert (sharded_plan(7, ADDRESSES, horizon=0.25).describe()
                != sharded_plan(8, ADDRESSES, horizon=0.25).describe())

    def test_geo_plan_cuts_only_primary_edges_symmetrically(self):
        plan = geo_plan(23, REGIONS, PRIMARY, horizon=0.3)
        assert plan.specs, "expected at least one kill window"
        components = {spec.component for spec in plan.specs}
        for spec in plan.specs:
            assert spec.kind is FaultKind.WAN_PARTITION
            assert PRIMARY in spec.component
            src, dst = spec.component.removeprefix("wan.").split("->")
            assert f"wan.{dst}->{src}" in components  # symmetric cut

    def test_primary_kill_plan_covers_every_primary_edge(self):
        plan = primary_kill_plan(3, REGIONS, PRIMARY, 0.1, 0.2)
        assert len(plan.specs) == 2 * (len(REGIONS) - 1)
        assert all(spec.window == (0.1, 0.2) for spec in plan.specs)

    def test_plans_identical_across_hash_seeds(self):
        # String-seeded RNGs hash with SHA-512, so the composed
        # schedules must not depend on PYTHONHASHSEED.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from repro.verify.nemesis import geo_plan, sharded_plan\n"
            "print(sharded_plan(7, ['a', 'b', 'c'], horizon=0.25,"
            " migration_at=0.1).describe())\n"
            "print(geo_plan(7, ('r1', 'r2', 'r3'), 'r1',"
            " horizon=0.3).describe())\n"
        )
        outputs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = str(src) + os.pathsep + env.get(
                "PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the E19 harness, bounded
# ---------------------------------------------------------------------------

class TestHarness:
    def test_sharded_schedule_clean_and_deterministic(self):
        first = _run_sharded_schedule(23, 0)
        second = _run_sharded_schedule(23, 0)
        assert first == second  # frozen dataclass: byte-identical rerun
        assert first.clean
        assert first.ops > 0 and first.ok_ops > 0

    def test_planted_bug_caught_only_under_async(self):
        plan = primary_kill_plan(23, REGIONS, PRIMARY, PB_T_KILL, PB_T_HEAL)
        outcomes = {
            mode.value: _planted_mode(plan, mode, 23)
            for mode in (Consistency.ASYNC, Consistency.QUORUM,
                         Consistency.SYNC)
        }
        assert not outcomes["async"].linearizable
        assert outcomes["async"].violating_keys >= 1
        assert PB_KEY.hex() in outcomes["async"].witness
        assert outcomes["quorum"].linearizable
        assert outcomes["sync"].linearizable
