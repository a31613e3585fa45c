"""E19: consistency verification — chaos search, checking, shrinking.

Three phases over :mod:`repro.verify`:

**Chaos search, sharded stack.** Seeded randomized schedules (node
outages, permanent power cuts, stuck flash dies, lossy client uplinks,
kills timed to land mid-``shard.handoff``) composed by the nemesis and
run against a live sharded KV workload. Client-observed histories are
checked per key for linearizability; the post-heal sweep checks zero
lost acknowledged writes.

**Chaos search, geo stack.** The same loop against three-region geo
clusters under ``quorum`` and ``sync`` acknowledgement modes, with
symmetric primary-kill WAN windows (see :mod:`repro.verify.nemesis`
for why the searched space is exactly this). The expected verdict is
*clean on every schedule*: under symmetric kills a quorum ack always
includes the first failover target, so no client can observe a stale
value. This is the claim no scripted scenario could make — here it is
checked over dozens of randomized schedules.

**Planted bug.** The identical symmetric primary-kill schedule is run
under ``async``, ``quorum`` and ``sync``. Async acknowledges at the
primary's WAL and ships later, so writes acked inside the replication
window are stranded when the partition lands; a post-failover audit
read observes the stale value and the checker flags the history
non-linearizable — while quorum and sync pass the same schedule. The
violating plan is then delta-debugged to a minimal reproducer (the
single WAN edge whose cut strands the write), replayed twice to show
the violation reproduces byte-identically, and dumped alongside the
flight-recorder post-mortem.

Same seed, byte-identical report — histories, verdicts, minimal plans
and shrink traces included, across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import DegradedError
from repro.eval.report import HIGHER, INFO, LOWER, Metric, Table, digest, violated
from repro.faults import FaultInjector, FaultPlan, node_outage_controller
from repro.georep import Consistency, GeoCluster, GeoKvClient, WanSpec
from repro.hw.net import Network
from repro.sharding import ShardedKvClient, ShardedKvCluster, ShardMigrator
from repro.sim import Simulator
from repro.transport import RpcError
from repro.verify import (
    HistoryRecorder,
    check_history,
    final_state_check,
    shrink_plan,
    zero_lost_acks,
)
from repro.verify.nemesis import geo_plan, primary_kill_plan, sharded_plan

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

#: Default schedule counts: 8 sharded + 6 geo-quorum + 6 geo-sync = 20.
SHARD_SCHEDULES = 8
GEO_SCHEDULES = 6

#: Sharded-stack scenario: keyspace, workload and timeline.
SHARD_DPUS = 3
SHARD_KEYS = 10
SHARD_T_END = 0.25
SHARD_T_QUIESCE = 0.32
SHARD_WRITE_FRACTION = 0.45
SHARD_THINK = 1.2e-3
SHARD_CLIENTS = 2
#: Wire timing so ops against a blackholed DPU resolve instead of wedge.
#: Recording clients are single-shot (``retries=0``) by design: the RPC
#: layer is at-least-once and the KV write handlers are not idempotent,
#: so a retransmitted put whose *first* response was merely late
#: re-executes at the server and can resurrect an old value over a
#: newer concurrent write — a genuine duplicate-delivery hazard the
#: verifier itself surfaced. With one request per call, a write the
#: client saw acked was applied exactly once before the ack, and an
#: abandoned write records as *indeterminate*, which keeps the lost-ack
#: invariant sound (indeterminate writes make a key non-binding).
SHARD_TIMEOUT = 2.5e-3
SHARD_RETRIES = 0
#: Migration control-plane calls retransmit through kill windows.
MIGRATION_TIMEOUT = 2e-3
MIGRATION_RETRIES = 64

#: Geo-stack scenario (mirrors E17's WAN shape).
REGIONS = ("r1", "r2", "r3")
PRIMARY = "r1"
WAN = (
    WanSpec("r1", "r2", propagation=3.0e-3),
    WanSpec("r2", "r1", propagation=4.0e-3),
    WanSpec("r1", "r3", propagation=5.0e-3),
    WanSpec("r3", "r1", propagation=5.5e-3),
    WanSpec("r2", "r3", propagation=4.0e-3),
    WanSpec("r3", "r2", propagation=4.5e-3),
)
GEO_KEYS = 8
GEO_T_START = 0.02
GEO_T_END = 0.30
GEO_T_QUIESCE = 0.45
GEO_WRITE_FRACTION = 0.45
GEO_THINK = 1.5e-3
#: Geo clients are also single-shot (see above); the per-attempt
#: timeout leaves headroom over the *worst* healthy ack path — a sync
#: write that just missed an in-flight ship batch waits up to two
#: 10.5 ms round trips — because a timed-out-but-applied attempt plus
#: the walk's replay is a double apply: the re-applied value can
#: resurface *after* an interleaved acknowledged write, which the
#: checker (correctly) flags. That replay anomaly is real and this
#: harness documents it; the searched schedules are shaped so it is
#: not triggered, keeping clean quorum/sync verdicts meaningful.
GEO_TIMEOUT = 28e-3
#: (home region, workers). Sync schedules spread homes across
#: followers: sync acks mean every region applied before the ack, so
#: local reads anywhere are fresh. Quorum schedules home every worker
#: at the first failover target: a quorum ack is *one* peer, so a
#: client settled on the non-acking follower would read genuinely
#: stale values — write-quorum plus local reads does not intersect.
GEO_WORKERS_SYNC = (("r2", 2), ("r3", 1))
GEO_WORKERS_QUORUM = (("r2", 3),)

#: Planted-bug timeline: writers run to the kill; a straggler keeps
#: writing at the partitioned primary (async still acks locally — the
#: bug); an auditor reads from the failover region mid-partition.
PB_T_KILL = 0.10
PB_T_HEAL = 0.24
PB_T_AUDIT = 0.13
PB_T_END = 0.26
PB_T_QUIESCE = 0.40
PB_STRAGGLER_START = PB_T_KILL - 4e-3
PB_STRAGGLER_END = PB_T_KILL + 6e-3
PB_KEY = b"planted-key"
SHRINK_BUDGET = 24


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleVerdict:
    """One chaos-search schedule's canonical outcome."""

    stack: str
    label: str
    plan_seed: int
    specs: int
    ops: int
    ok_ops: int
    failed_ops: int
    indeterminate_ops: int
    linearizable: bool
    states: int
    lost: int
    diverged: int
    plan_digest: str
    history_digest: str
    violations: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return self.linearizable and not self.lost and not self.diverged

    def line(self) -> str:
        verdict = "linearizable" if self.linearizable else "NON-LINEARIZABLE"
        return (
            f"schedule {self.stack} {self.label} seed={self.plan_seed} "
            f"specs={self.specs} ops={self.ops} ok={self.ok_ops} "
            f"failed={self.failed_ops} indet={self.indeterminate_ops} "
            f"{verdict} states={self.states} lost={self.lost} "
            f"diverged={self.diverged} plan={self.plan_digest} "
            f"history={self.history_digest}"
        )


@dataclass(frozen=True)
class PlantedOutcome:
    """One consistency mode's verdict on the planted-bug schedule."""

    mode: str
    linearizable: bool
    violating_keys: int
    witness: str
    ops: int
    indeterminate_ops: int
    history_digest: str

    def line(self) -> str:
        verdict = "linearizable" if self.linearizable else "NON-LINEARIZABLE"
        witness = f" witness=[{self.witness}]" if self.witness else ""
        return (
            f"planted mode={self.mode} {verdict} "
            f"violating_keys={self.violating_keys} ops={self.ops} "
            f"indet={self.indeterminate_ops} "
            f"history={self.history_digest}{witness}"
        )


@dataclass
class PlantedReport:
    """The planted-bug demonstration: detect, shrink, replay, dump."""

    outcomes: List[PlantedOutcome]
    shrink_runs: int
    removed_specs: int
    narrowed_windows: int
    minimal_specs: int
    minimal_plan: str
    replay_digest: str
    replay_matches: bool
    flight_trigger: str
    flight_digest: str
    flight_dump: bytes = b""

    @property
    def caught(self) -> bool:
        """Async breaks on the planted plan; quorum and sync pass it."""
        ok = {outcome.mode: outcome.linearizable for outcome in self.outcomes}
        return not ok["async"] and ok["quorum"] and ok["sync"]

    def lines(self) -> List[str]:
        out = [outcome.line() for outcome in self.outcomes]
        out.append(
            f"shrink runs={self.shrink_runs} removed={self.removed_specs} "
            f"narrowed={self.narrowed_windows} "
            f"minimal_specs={self.minimal_specs}"
        )
        out.extend(f"minimal: {line}"
                   for line in self.minimal_plan.splitlines())
        out.append(
            f"replay digest={self.replay_digest} "
            f"matches={str(self.replay_matches).lower()}"
        )
        out.append(
            f"postmortem trigger={self.flight_trigger} "
            f"digest={self.flight_digest}"
        )
        return out


@dataclass
class VerifyReport:
    """Everything E19 measured, canonically rendered for the benchmark."""

    seed: int
    schedules: List[ScheduleVerdict]
    planted: PlantedReport
    checker_states: int = 0
    total_ops: int = 0

    @property
    def clean_schedules(self) -> int:
        return sum(1 for verdict in self.schedules if verdict.clean)

    def canonical_bytes(self) -> bytes:
        lines = [f"verify seed={self.seed} schedules={len(self.schedules)}"]
        lines.extend(verdict.line() for verdict in self.schedules)
        lines.extend(self.planted.lines())
        lines.append(
            f"totals clean={self.clean_schedules} ops={self.total_ops} "
            f"states={self.checker_states}"
        )
        return ("\n".join(lines) + "\n").encode()


def metrics(report) -> Dict[str, Metric]:
    return {
        "schedules_clean": Metric(report.clean_schedules, HIGHER, "schedules"),
        "schedules_total": Metric(len(report.schedules), INFO, "schedules"),
        "history_ops": Metric(report.total_ops, INFO, "ops"),
        "checker_states": Metric(report.checker_states, LOWER, "states"),
        "planted_bug_caught": Metric(
            float(report.planted.caught), HIGHER, "bool"),
        "minimal_plan_specs": Metric(
            report.planted.minimal_specs, LOWER, "specs"),
        "shrink_runs": Metric(report.planted.shrink_runs, INFO, "runs"),
        "replay_deterministic": Metric(
            float(report.planted.replay_matches), HIGHER, "bool"),
        "report_digest": Metric(0.0, INFO, digest(report.canonical_bytes())),
    }


def accept(report) -> List[str]:
    return violated(
        (report.clean_schedules == len(report.schedules),
         "every searched fault schedule is linearizable, nothing lost "
         "or diverged"),
        (report.planted.caught,
         "the planted async bug is caught; quorum and sync pass the plan"),
        (report.planted.replay_matches,
         "the shrunk reproducer replays byte-identically"),
    )


# ---------------------------------------------------------------------------
# the sharded-stack scenario
# ---------------------------------------------------------------------------

def _shard_keys() -> List[bytes]:
    return [f"vkey-{index:02d}".encode() for index in range(SHARD_KEYS)]


def _run_sharded_schedule(seed: int, index: int) -> ScheduleVerdict:
    """One randomized fault schedule against a live sharded cluster."""
    rng = random.Random(f"verify/shard/{seed}/{index}")
    plan_seed = rng.randrange(1 << 30)
    sim = Simulator()
    network = Network(sim)
    cluster = ShardedKvCluster(
        sim, network, dpu_count=SHARD_DPUS, ssd_blocks=4096,
    )
    migration_at = (
        rng.uniform(0.3, 0.5) * SHARD_T_END if index % 2 == 0 else None
    )
    plan = sharded_plan(
        plan_seed, cluster.addresses, horizon=SHARD_T_END,
        migration_at=migration_at,
    )
    injector = FaultInjector(sim, plan)
    for device in cluster.devices.values():
        device.controller.attach_faults(injector)

    history = HistoryRecorder(sim)
    clients = [
        ShardedKvClient(
            sim, cluster, f"v{index}-{worker}", cache=None,
            timeout=SHARD_TIMEOUT, retries=SHARD_RETRIES,
            history=history,
        )
        for worker in range(SHARD_CLIENTS)
    ]
    network.port(f"shard-client-{clients[0].name}").route().attach_faults(
        injector, "client.uplink"
    )

    keys = _shard_keys()
    done = [False]
    down: set = set()
    migrated: List[object] = []

    def worker(client: ShardedKvClient, wrng: random.Random):
        sequence = 0
        while True:
            yield sim.timeout(wrng.uniform(0.7, 1.3) * SHARD_THINK)
            if sim.now >= SHARD_T_END:
                return
            key = wrng.choice(keys)
            try:
                if wrng.random() < SHARD_WRITE_FRACTION:
                    value = f"{client.name}:{sequence}".encode()
                    sequence += 1
                    yield from client.put(key, value)
                else:
                    yield from client.get(key)
            except RpcError:
                continue  # outcome already recorded in the history

    def migration():
        yield sim.timeout(migration_at)
        migrator = ShardMigrator(
            sim, cluster, call_timeout=MIGRATION_TIMEOUT,
            call_retries=MIGRATION_RETRIES,
        )
        report = yield from migrator.add_dpu()
        migrated.append(report)

    # E13-style: NODE_DOWN windows and fired POWER_LOSS specs map to
    # switch blackholes.
    sim.process(node_outage_controller(
        sim, injector, network.switch, cluster.addresses, down,
        lambda: done[0],
    ))
    for worker_index, client in enumerate(clients):
        sim.process(worker(
            client, random.Random(f"verify/shard/{seed}/{index}/w{worker_index}")
        ))
    if migration_at is not None:
        sim.process(migration())
    sim.run(until=SHARD_T_END)
    done[0] = True
    for address in sorted(down):
        network.switch.restore(address)
    down.clear()
    sim.run(until=SHARD_T_QUIESCE)
    if migration_at is not None and not migrated:
        raise RuntimeError("migration did not complete by quiesce")
    history.close_open_ops()

    check = check_history(history)
    sweeper = ShardedKvClient(
        sim, cluster, f"v{index}-sweep", cache=None,
        timeout=5e-3, retries=3, deadline=60e-3,
    )
    final: Dict[bytes, Optional[bytes]] = {}
    for key in keys:
        final[key] = sim.run_process(sweeper.get(key))
    state = zero_lost_acks(history, final)
    counts = history.counts()
    return ScheduleVerdict(
        stack="sharded",
        label=(f"s{index}" + ("+migration" if migration_at is not None
                              else "")),
        plan_seed=plan_seed,
        specs=len(plan.specs),
        ops=len(history.ops),
        ok_ops=counts["ok"],
        failed_ops=counts["fail"],
        indeterminate_ops=counts["indeterminate"],
        linearizable=check.ok,
        states=check.states,
        lost=len(state.lost),
        diverged=len(state.diverged),
        plan_digest=digest(plan.describe()),
        history_digest=history.digest(),
        violations=tuple(
            result.line() for result in check.violations
        ),
    )


# ---------------------------------------------------------------------------
# the geo-stack scenario
# ---------------------------------------------------------------------------

def _geo_keys() -> List[bytes]:
    return [f"gkey-{index:02d}".encode() for index in range(GEO_KEYS)]


@dataclass
class _GeoRun:
    """Raw material one geo scenario produced."""

    history: HistoryRecorder
    sweeps: Dict[str, Dict[bytes, Optional[bytes]]]
    sim: Simulator


def _run_geo_scenario(
    plan: FaultPlan,
    consistency: Consistency,
    seed: int,
    *,
    label: str,
    workers: Tuple = GEO_WORKERS_SYNC,
    planted: bool = False,
) -> _GeoRun:
    """One geo cluster under *plan*: workload, heal, quiesce, sweep.

    With ``planted=True`` the run adds the straggler (writes at the
    partitioned primary through the kill — under async these ack
    locally and strand) and the auditor (reads everything from the
    failover region mid-partition — the observation that catches the
    stale value). Workers stop at the kill so the audit is exact.
    """
    sim = Simulator()
    injector = FaultInjector(sim, plan)
    cluster = GeoCluster(
        sim, REGIONS, wan=WAN, consistency=consistency, injector=injector,
    )
    history = HistoryRecorder(sim)
    keys = _geo_keys()
    horizon = PB_T_KILL if planted else GEO_T_END
    quiesce = PB_T_QUIESCE if planted else GEO_T_QUIESCE

    clients: List[GeoKvClient] = []
    for home, count in workers:
        for worker_index in range(count):
            clients.append(GeoKvClient(
                sim, cluster, f"{label}-{home}-w{worker_index}", home=home,
                preference=REGIONS, rounds=2, timeout=GEO_TIMEOUT,
                retries=0, history=history,
            ))

    def worker(client: GeoKvClient, wrng: random.Random):
        sequence = 0
        yield sim.timeout(GEO_T_START)
        while True:
            yield sim.timeout(wrng.uniform(0.7, 1.3) * GEO_THINK)
            if sim.now >= horizon:
                return
            key = wrng.choice(keys)
            try:
                if wrng.random() < GEO_WRITE_FRACTION:
                    value = f"{client.name}:{sequence}".encode()
                    sequence += 1
                    yield from client.put(key, value)
                else:
                    yield from client.get(key)
            except DegradedError:
                continue  # outcome already recorded in the history

    def straggler():
        # Homed at the primary: intra-region calls never cross the cut
        # WAN links, so under async the primary keeps acking its writes
        # while partitioned — exactly the acks that strand.
        client = GeoKvClient(
            sim, cluster, f"{label}-straggler", home=PRIMARY,
            preference=REGIONS, rounds=1, timeout=GEO_TIMEOUT,
            retries=0, history=history,
        )
        sequence = 0
        yield sim.timeout(PB_STRAGGLER_START)
        while sim.now < PB_STRAGGLER_END:
            value = f"straggler:{sequence}".encode()
            sequence += 1
            try:
                yield from client.put(PB_KEY, value)
            except DegradedError:
                pass
            yield sim.timeout(0.5e-3)

    def auditor():
        client = GeoKvClient(
            sim, cluster, f"{label}-audit", home="r2",
            preference=REGIONS, rounds=1, timeout=GEO_TIMEOUT,
            retries=0, history=history,
        )
        yield sim.timeout(PB_T_AUDIT)
        for key in [PB_KEY] + keys:
            try:
                yield from client.get(key)
            except DegradedError:
                pass

    for worker_index, client in enumerate(clients):
        sim.process(worker(
            client, random.Random(f"verify/geo/{seed}/{label}/w{worker_index}")
        ))
    if planted:
        sim.process(straggler())
        sim.process(auditor())
    sim.run(until=quiesce)
    cluster.stop()
    sim.run()
    history.close_open_ops()

    extra = [PB_KEY] if planted else []
    sweeps: Dict[str, Dict[bytes, Optional[bytes]]] = {}
    for name in REGIONS:
        store = cluster.region(name).store
        sweeps[name] = {
            key: sim.run_process(store.get(key)) for key in keys + extra
        }
    return _GeoRun(history, sweeps, sim)


def _run_geo_schedule(seed: int, index: int,
                      consistency: Consistency) -> ScheduleVerdict:
    """One randomized WAN schedule against a quorum/sync geo cluster."""
    rng = random.Random(f"verify/geo/{seed}/{consistency.value}/{index}")
    plan_seed = rng.randrange(1 << 30)
    plan = geo_plan(plan_seed, REGIONS, PRIMARY, horizon=GEO_T_END)
    label = f"g{index}-{consistency.value}"
    homes = (GEO_WORKERS_QUORUM if consistency is Consistency.QUORUM
             else GEO_WORKERS_SYNC)
    run = _run_geo_scenario(plan, consistency, seed, label=label,
                            workers=homes)
    check = check_history(run.history)
    state = final_state_check(run.history, run.sweeps)
    counts = run.history.counts()
    return ScheduleVerdict(
        stack="geo",
        label=label,
        plan_seed=plan_seed,
        specs=len(plan.specs),
        ops=len(run.history.ops),
        ok_ops=counts["ok"],
        failed_ops=counts["fail"],
        indeterminate_ops=counts["indeterminate"],
        linearizable=check.ok,
        states=check.states,
        lost=len(state.lost),
        diverged=len(state.diverged),
        plan_digest=digest(plan.describe()),
        history_digest=run.history.digest(),
        violations=tuple(result.line() for result in check.violations),
    )


# ---------------------------------------------------------------------------
# the planted bug: detect, shrink, replay, dump
# ---------------------------------------------------------------------------

def _planted_mode(plan: FaultPlan,
                  consistency: Consistency, seed: int) -> PlantedOutcome:
    run = _run_geo_scenario(
        plan, consistency, seed, label=f"pb-{consistency.value}",
        planted=True,
    )
    check = check_history(run.history)
    counts = run.history.counts()
    witness = ""
    for result in check.violations:
        if result.witness is not None:
            witness = result.witness.line()
            break
    return PlantedOutcome(
        mode=consistency.value,
        linearizable=check.ok,
        violating_keys=len(check.violations),
        witness=witness,
        ops=len(run.history.ops),
        indeterminate_ops=counts["indeterminate"],
        history_digest=run.history.digest(),
    )


def _run_planted(seed: int, shrink_budget: int) -> PlantedReport:
    plan = primary_kill_plan(seed, REGIONS, PRIMARY, PB_T_KILL, PB_T_HEAL)
    outcomes = [
        _planted_mode(plan, mode, seed)
        for mode in (Consistency.ASYNC, Consistency.QUORUM, Consistency.SYNC)
    ]

    def violates(candidate: FaultPlan) -> bool:
        run = _run_geo_scenario(
            candidate, Consistency.ASYNC, seed, label="pb-async",
            planted=True,
        )
        return not check_history(run.history).ok

    shrunk = shrink_plan(plan, violates, max_runs=shrink_budget)

    # Replay the minimal plan twice: the violation must reproduce with
    # byte-identical histories (the determinism the shrink relied on).
    replays = []
    final_run: Optional[_GeoRun] = None
    for __ in range(2):
        run = _run_geo_scenario(
            shrunk.plan, Consistency.ASYNC, seed, label="pb-async",
            planted=True,
        )
        replays.append(run.history.canonical_bytes())
        final_run = run
    final_check = check_history(final_run.history)
    replay_matches = replays[0] == replays[1] and not final_check.ok

    # The post-mortem: journal the verdict into the minimal run's
    # flight recorder and dump it, alongside the minimal plan itself.
    trigger = "verify:non-linearizable"
    recorder = final_run.sim.recorder
    for result in final_check.violations:
        recorder.record("verify", result.line())
    dump = recorder.dump(trigger)
    return PlantedReport(
        outcomes=outcomes,
        shrink_runs=shrunk.runs,
        removed_specs=shrunk.removed_specs,
        narrowed_windows=shrunk.narrowed_windows,
        minimal_specs=len(shrunk.plan.specs),
        minimal_plan=shrunk.plan.describe(),
        replay_digest=digest(replays[0]),
        replay_matches=replay_matches,
        flight_trigger=trigger,
        flight_digest=digest(dump),
        flight_dump=dump,
    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_verify(
    seed: int = 23,
    *,
    shard_schedules: int = SHARD_SCHEDULES,
    geo_schedules: int = GEO_SCHEDULES,
    shrink_budget: int = SHRINK_BUDGET,
) -> VerifyReport:
    """Run the chaos search and the planted-bug demonstration (E19)."""
    schedules: List[ScheduleVerdict] = []
    for index in range(shard_schedules):
        schedules.append(_run_sharded_schedule(seed, index))
    for mode in (Consistency.QUORUM, Consistency.SYNC):
        for index in range(geo_schedules):
            schedules.append(_run_geo_schedule(seed, index, mode))
    planted = _run_planted(seed, shrink_budget)
    return VerifyReport(
        seed=seed,
        schedules=schedules,
        planted=planted,
        checker_states=sum(verdict.states for verdict in schedules),
        total_ops=sum(verdict.ops for verdict in schedules),
    )


def format_verify(report: VerifyReport) -> str:
    search = Table(
        "E19a: chaos search — seeded fault schedules vs consistency checks",
        ["schedule", "stack", "specs", "ops", "indet", "verdict",
         "lost", "diverged"],
    )
    for verdict in report.schedules:
        search.add_row(
            verdict.label, verdict.stack, verdict.specs, verdict.ops,
            verdict.indeterminate_ops,
            "linearizable" if verdict.linearizable else "VIOLATION",
            verdict.lost, verdict.diverged,
        )
    planted = Table(
        "E19b: planted bug — async strands acked writes, quorum/sync don't",
        ["mode", "verdict", "violating keys", "ops"],
    )
    for outcome in report.planted.outcomes:
        planted.add_row(
            outcome.mode,
            "linearizable" if outcome.linearizable else "NON-LINEARIZABLE",
            outcome.violating_keys, outcome.ops,
        )
    shrink = Table(
        "E19c: minimal reproducer",
        ["metric", "value"],
    )
    shrink.add_row("scenario re-runs", report.planted.shrink_runs)
    shrink.add_row("specs removed", report.planted.removed_specs)
    shrink.add_row("windows narrowed", report.planted.narrowed_windows)
    shrink.add_row("minimal plan specs", report.planted.minimal_specs)
    shrink.add_row("replay byte-identical",
                   str(report.planted.replay_matches).lower())
    shrink.add_row("post-mortem bytes", len(report.planted.flight_dump))
    closing = (
        "all searched schedules consistent; planted bug caught and shrunk"
        if not accept(report) else "UNEXPECTED VERDICT"
    )
    minimal = "\n".join(
        f"  {line}" for line in report.planted.minimal_plan.splitlines()
    )
    return "\n\n".join([
        search.render(), planted.render(), shrink.render(),
        f"minimal reproducer:\n{minimal}",
        f"verdict: {closing} (seed={report.seed}, "
        f"schedules={len(report.schedules)}, ops={report.total_ops})",
    ])


def smoke(argv=None) -> int:
    """``python -m repro.eval.verify --seed N``: E19 cut down to a smoke
    run — one schedule per stack and mode, the planted-bug detection, no
    shrinking — printed as canonical verdict lines.

    Exit status 0 means every verdict came out as the model predicts:
    searched schedules consistent, the planted async bug caught, quorum
    and sync clean on the identical schedule. 2 means a verdict went the
    wrong way, and the printed lines are the evidence.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.verify",
        description="bounded consistency-verification smoke run",
    )
    parser.add_argument("--seed", type=int, default=23,
                        help="schedule seed (default 23)")
    seed = parser.parse_args(argv).seed
    report = run_verify(seed, shard_schedules=1, geo_schedules=1,
                        shrink_budget=0)
    outcomes = report.planted.outcomes
    for result in report.schedules + outcomes:
        print(result.line())
    failures = len(report.schedules) - report.clean_schedules + sum(
        outcome.linearizable == (outcome.mode == Consistency.ASYNC.value)
        for outcome in outcomes
    )
    verdict = "ok" if failures == 0 else f"FAILED ({failures} wrong verdicts)"
    print(f"smoke seed={seed} {verdict}")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    raise SystemExit(smoke())
