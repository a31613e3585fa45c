"""Fast tests of the benchmark itself: tiny windows, a few seconds.

    python -m pytest perfbench/tests -q

Not part of the tier-1 ``testpaths``: they test the measuring
instrument, not ``repro``.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import ledger  # noqa: E402
import run  # noqa: E402
import schema  # noqa: E402
import workloads  # noqa: E402

TINY = 0.03
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def worker(workload, seed, hashseed="0", traced=0):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, run.WORKER, "--workload", workload,
         "--seed", str(seed), "--scale", repr(TINY), "--traced", str(traced)],
        stdout=subprocess.PIPE, text=True, env=env, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def timed(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", workload, "--seed", "11", "--seconds", "0",
         "--trace", str(trace), "--scale", repr(TINY)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_digest_follows_the_seed_and_nothing_else(workload):
    first = worker(workload, 11, hashseed="0")
    second = worker(workload, 11, hashseed="1")
    other = worker(workload, 12, hashseed="0")
    assert first["wrong"] == second["wrong"] == other["wrong"] == []
    assert first["failed"] == 0
    for name in run.SIMULATED:
        assert first[name] == second[name], name
    assert first["result_digest"] != other["result_digest"]


def test_traced_run_accounts_for_its_wall_and_cleans_up():
    book = ledger.Ledger(11)
    workload = workloads.KvBatchedRead(11, 0.1)
    workload.build(book.new_sim)
    sim = workload.sim
    wrapped = sim.timeout
    book.begin()
    wall = 0.0
    pieces = workload.measure()
    while True:
        started = time.perf_counter()
        try:
            book.step(pieces)
        except StopIteration:
            break
        wall += time.perf_counter() - started
    book.end()
    assert sys.getprofile() is None
    assert sim.timeout is not wrapped
    assert {type(getattr(sim, name)).__name__
            for name in book.entries} == {"partial"}
    assert not sim.tracer.enabled
    assert sum(book.host_seconds.values()) == pytest.approx(wall, rel=0.02)
    assert book.entries["timeout"] > 0
    assert set(book.host_seconds) == set(ledger.LAYERS)


def test_tracing_leaves_the_simulation_alone():
    traced = worker("traffic-day", 11, traced=1)
    plain = worker("traffic-day", 11)
    for name in run.SIMULATED:
        assert traced[name] == plain[name], name


def test_names_are_plain_and_unique(manifest):
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)


def test_manifest_lists_what_the_runner_emits(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for workload in manifest["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why
    for key, metrics in (("end_to_end", schema.END_TO_END),
                         ("per_layer", schema.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        assert listed == [(m.name, m.unit, m.better) for m in metrics]
    assert ([m["bound"] for m in manifest["end_to_end"]]
            == [m.bound for m in schema.END_TO_END])
    end_to_end = timed("offload-fail2ban", 0)
    per_layer = timed("offload-fail2ban", 1)
    for emitted, key in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert emitted["correct"] is True and emitted["failed"] == 0
        assert ({name: m["unit"] for name, m in emitted["metrics"].items()}
                == {m["name"]: m["unit"] for m in manifest[key]})
