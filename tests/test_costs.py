"""COSTS.json, the committed host-cost ledger (``tools/costs.py``): its
schema, and the ``--json`` rows of the two tools it is written from."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("costs", ROOT / "tools" / "costs.py")
costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(costs)


def check_row(row):
    """Totals and per-package counts per op; the packages add up to the
    totals (each is rounded to 0.001)."""
    assert set(row) == {"scale", "ops", "packages", *costs.COUNTS}
    assert row["ops"] > 0 and row["packages"]
    for count in costs.COUNTS:
        parts = [package[count] for package in row["packages"].values()]
        assert abs(sum(parts) - row[count]) <= 0.001 * len(parts)
    for name, package in row["packages"].items():
        assert set(package) == set(costs.COUNTS)
        assert name == "perfbench" or (ROOT / "src" / "repro" / name).is_dir() \
            or name in ("repro", "other")


def test_both_tools_print_a_ledger_row():
    """One tiny window through both tools at once, as ``make costs``
    runs them: the same ops, and rows COSTS.json's schema takes."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    runs = [subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / tool), "offload-fail2ban",
         "--seed", "11", "--scale", "0.005", "--json"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        for tool in ("entry_census.py", "opcount.py")]
    census, opcodes = (json.loads(run.communicate()[0]) for run in runs)
    assert all(run.returncode == 0 for run in runs)
    assert census["workload"] == opcodes["workload"] == "offload-fail2ban"
    row = costs.merge(census, opcodes)
    check_row(row)
    assert row["scale"] == 0.005 and row["ops"] == 160
    # The eBPF run is the program's own code, counted in ``ebpf``.
    assert row["packages"]["ebpf"]["bytecodes_per_op"] > 0


def test_the_committed_ledger_covers_every_workload():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    ledger = json.loads((ROOT / "COSTS.json").read_text())
    assert set(ledger) == {"python", "seed", "workloads"}
    assert ledger["seed"] == costs.SEED
    assert set(ledger["workloads"]) == set(workloads.WORKLOADS) == set(costs.SCALES)
    for name, row in ledger["workloads"].items():
        check_row(row)
        assert row["scale"] == costs.SCALES[name]
