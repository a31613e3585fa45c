"""tools/entry_census.py names the owner of every engine entry of a
perfbench workload's measured window, and observing a run that way does
not move it."""

import importlib.util
import pathlib

import pytest

from repro.sim import Simulator

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "entry_census", ROOT / "tools" / "entry_census.py")
entry_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(entry_census)

SEED = 11


def plain_run(name, scale):
    """The same workload on plain simulators: the ``_eid`` delta over
    the measured window and perfbench's summary of the run."""
    import metrics
    import workloads

    workload = workloads.WORKLOADS[name](SEED, scale)
    sims = []

    def new_sim():
        sims.append(Simulator())
        return sims[-1]

    workload.build(new_sim)
    before = [sim._eid for sim in sims]
    for __ in workload.measure():
        pass
    delta = sum(sim._eid - start for sim, start in zip(sims, before))
    return delta, metrics.summarise(workload.finish(), [])


# kv-batched-read drains its queues at the end of the window;
# georep-quorum leaves its shippers' next entries queued.
@pytest.mark.parametrize("name,scale", [("kv-batched-read", 0.1),
                                        ("georep-quorum", 0.01)])
def test_the_census_counts_every_entry_of_the_plain_schedule(name, scale):
    census, delta, attempted, summary, __ = entry_census.take(
        name, SEED, scale)
    assert attempted > 0
    assert sum(census.values()) == delta
    assert (delta, summary) == plain_run(name, scale)


def test_owners_name_what_each_entry_runs():
    census, delta, attempted, __, __ = entry_census.take(
        "kv-batched-read", SEED, 0.1)
    # Each sub-batch is sent from a scheduled callback; the caller waits
    # on one event; link serializations run the link's own bookkeeping.
    assert census["call RpcClient.issue_batch"] > 0
    assert census["Event -> resume ShardedKvClient._batched"] > 0
    assert census["Timeout -> Link._on_serialized"] > 0
    lines = entry_census.render("kv-batched-read", SEED, census, delta,
                                attempted).splitlines()
    assert lines[0] == (
        f"kv-batched-read seed {SEED}: {delta} entries over {attempted} "
        f"attempted ops = {delta / attempted:.3f} per op")
    assert len(lines) == 2 + len(census)
