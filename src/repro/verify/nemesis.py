"""The chaos-search nemesis: seeded, randomized fault-plan composition.

A *nemesis* (the Jepsen term) is the adversary that injects faults while
the workload runs. Here it is a pure plan generator: given a schedule
seed it draws a randomized composition of fault windows — node
outages, power cuts, stuck flash dies, lossy uplinks, mid-migration
kills for the sharded stack; WAN partition windows for the geo stack —
as plain :class:`~repro.faults.FaultPlan` data. Nothing fires at
composition time; the same seed always composes the same schedule, so
chaos search is an enumeration of deterministic scenarios, and any hit
replays (and shrinks) exactly.

Layers are built as separate plans and composed with
:meth:`~repro.faults.FaultPlan.merge`, which name-sorts the union —
composition order never changes the schedule.

The RNG is ``random.Random(f"verify/nemesis/{seed}")``: string seeding
hashes with SHA-512 internally, so schedules are identical across
``PYTHONHASHSEED`` values — the cross-hash-seed CI diff depends on it.

Geo plans only ever cut the *primary's* links symmetrically (both
directions of every primary edge at once). That is deliberate; the
excluded shapes are real — and known — anomaly classes of this stack,
distinct from the planted async demonstration:

* under an *asymmetric* primary cut a quorum write can be acknowledged
  via one follower while clients fail over to the other — genuinely
  non-linearizable;
* a single-direction *follower* cut drops only responses, so a client
  whose call timed out replays a write that already applied — and the
  replayed/late attempt can re-apply it with a fresh LWW stamp *after*
  another client's acknowledged write, a duplicate-delivery anomaly
  the verifier surfaced while this schedule space was being built.

Symmetric primary cuts admit neither (requests to the dead primary
never arrive, so abandoned attempts leave no late-applying ghosts),
which is what makes "quorum and sync pass every schedule" a meaningful
verdict rather than a coin flip over known bugs.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.faults.plan import FaultKind, FaultPlan

__all__ = ["geo_plan", "primary_kill_plan", "sharded_plan"]

#: The component id the recording client's uplink consults for faults.
CLIENT_UPLINK = "client.uplink"


def _window(rng: random.Random, lo: float, hi: float,
            min_dur: float, max_dur: float) -> tuple:
    """A random (start, end) window inside [lo, hi]."""
    duration = rng.uniform(min_dur, max_dur)
    start = rng.uniform(lo, max(lo, hi - duration))
    return (start, start + duration)


def sharded_plan(
    seed: int,
    addresses: Sequence[str],
    *,
    horizon: float,
    migration_at: Optional[float] = None,
) -> FaultPlan:
    """A randomized schedule against one sharded KV cluster.

    Composes (seeded per schedule):

    * one node-outage window on a random DPU (the controller maps it to
      a switch blackhole, E13-style);
    * with probability 1/2, one fire-once power cut on another DPU —
      down for the rest of the run;
    * one stuck-die window on a random DPU's flash (latency, not loss);
    * a lossy window on the :data:`CLIENT_UPLINK` link (bounded
      probabilistic frame drops);
    * when *migration_at* is given, a kill window on the first DPU
      timed to land mid-``shard.handoff``.
    """
    rng = random.Random(f"verify/nemesis/{seed}")
    addresses = list(addresses)

    outages = FaultPlan(seed=seed)
    victim = rng.choice(addresses)
    outages.windowed(
        "node-outage", victim, FaultKind.NODE_DOWN,
        *_window(rng, 0.15 * horizon, 0.7 * horizon,
                 0.08 * horizon, 0.2 * horizon),
    )
    if rng.random() < 0.5:
        survivor_pool = [a for a in addresses if a != victim]
        outages.once(
            "power-cut", rng.choice(survivor_pool), FaultKind.POWER_LOSS,
            at=rng.uniform(0.5 * horizon, 0.8 * horizon),
        )

    devices = FaultPlan(seed=seed)
    stuck = rng.choice(addresses)
    devices.windowed(
        "die-stuck", f"{stuck}-flash.flash", FaultKind.DIE_STUCK,
        *_window(rng, 0.1 * horizon, 0.8 * horizon,
                 0.1 * horizon, 0.25 * horizon),
    )
    devices.probabilistic(
        "lossy-uplink", CLIENT_UPLINK, FaultKind.FRAME_DROP,
        probability=rng.uniform(0.004, 0.015),
        window=_window(rng, 0.0, horizon, 0.3 * horizon, 0.6 * horizon),
        max_fires=rng.randint(4, 10),
    )

    plan = outages.merge(devices)
    if migration_at is not None:
        kills = FaultPlan(seed=seed)
        kills.windowed(
            "migration-kill", addresses[0], FaultKind.NODE_DOWN,
            migration_at + 0.5e-3, migration_at + 0.5e-3 + 0.06 * horizon,
        )
        plan = plan.merge(kills)
    return plan


def _primary_edges(regions: Sequence[str], primary: str):
    for region in regions:
        if region != primary:
            yield (primary, region)
            yield (region, primary)


def primary_kill_plan(seed: int, regions: Sequence[str], primary: str,
                      start: float, end: float) -> FaultPlan:
    """Symmetrically cut every WAN edge of *primary* over one window."""
    plan = FaultPlan(seed=seed)
    for src, dst in _primary_edges(regions, primary):
        plan.wan_partition(f"kill-{src}-{dst}", src, dst, start, end)
    return plan


def geo_plan(
    seed: int,
    regions: Sequence[str],
    primary: str,
    *,
    horizon: float,
    windows: int = 2,
) -> FaultPlan:
    """A randomized WAN schedule against one geo cluster.

    Composes up to *windows* non-overlapping symmetric primary-kill
    windows (see the module docstring for why the space is exactly
    this). Sync schedules still exercise the checker's indeterminate
    handling hard — every write invoked inside a window times out
    everywhere — without ever flagging mere unavailability.
    """
    rng = random.Random(f"verify/nemesis/{seed}")

    kills = FaultPlan(seed=seed)
    cursor = 0.15 * horizon
    for index in range(windows):
        if cursor >= 0.65 * horizon:
            break
        start, end = _window(rng, cursor, min(cursor + 0.25 * horizon,
                                              0.65 * horizon),
                             0.05 * horizon, 0.12 * horizon)
        for src, dst in _primary_edges(regions, primary):
            kills.wan_partition(
                f"kill{index}-{src}-{dst}", src, dst, start, end,
            )
        cursor = end + 0.05 * horizon
    return kills
