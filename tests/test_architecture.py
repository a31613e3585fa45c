"""Architectural discipline checks.

The README promises: "the DPU datapaths are composed only of hardware
components ... and they never call into ``repro.baseline`` — the only place
where syscalls, interrupts, copies, and CPU jitter exist." These tests
enforce that statically, so a refactor cannot quietly put a CPU back into
the CPU-free paths.
"""

import ast
import inspect
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages that model the CPU-free side and must never touch the baseline.
CPU_FREE_PACKAGES = [
    "hw", "memory", "ebpf", "hdl", "transport", "storage",
    "datastruct", "fs", "formats", "dpu", "sim", "common", "telemetry",
]


def _imports_of(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _package_files(package: str):
    return sorted((SRC / package).rglob("*.py"))


class TestCpuFreeDiscipline:
    @pytest.mark.parametrize("package", CPU_FREE_PACKAGES)
    def test_no_baseline_imports(self, package):
        for path in _package_files(package):
            for module in _imports_of(path):
                assert not module.startswith("repro.baseline"), (
                    f"{path.relative_to(SRC)} imports {module}: the CPU "
                    f"crept back into a CPU-free package"
                )

    def test_baseline_exists_and_is_isolated(self):
        assert _package_files("baseline"), "baseline package missing"

    def test_hw_never_imports_upward(self):
        """Hardware models must not depend on apps/eval layers."""
        for path in _package_files("hw"):
            for module in _imports_of(path):
                for forbidden in ("repro.apps", "repro.eval", "repro.dpu"):
                    assert not module.startswith(forbidden), (
                        f"{path.relative_to(SRC)} imports {module}"
                    )

    def test_only_the_harness_imports_the_harness(self):
        """``repro.eval`` and ``repro.bench`` sit on top: every other
        package stays runnable (and measurable from outside, as
        ``perfbench/`` does) without the experiment harness."""
        for package in sorted(p.name for p in SRC.iterdir() if p.is_dir()):
            if package in ("eval", "bench"):
                continue
            for path in _package_files(package):
                for module in _imports_of(path):
                    assert not module.startswith(
                        ("repro.eval", "repro.bench")
                    ), f"{path.relative_to(SRC)} imports {module}"

    def test_sim_kernel_is_near_leaf(self):
        """The DES kernel depends only on the telemetry plane below it.

        The metrics registry and tracer sit *under* the simulator (every
        component reaches them through ``sim.telemetry`` / ``sim.tracer``),
        so ``repro.sim`` may import ``repro.telemetry`` — and nothing else.
        """
        for path in _package_files("sim"):
            for module in _imports_of(path):
                if module.startswith("repro."):
                    assert module.startswith(("repro.sim", "repro.telemetry")), (
                        f"sim kernel imports {module}"
                    )

    def test_telemetry_is_leaf(self):
        """The telemetry plane depends only on repro.common.

        It must stay importable from every layer (sim, hw, datastruct,
        formats) without cycles, so it can depend on nothing above the
        error types.
        """
        for path in _package_files("telemetry"):
            for module in _imports_of(path):
                if module.startswith("repro."):
                    assert module.startswith(
                        ("repro.telemetry", "repro.common")
                    ), f"telemetry imports {module}"


def _uses_of(path: pathlib.Path, name: str) -> int:
    """References in *path* to a name or attribute called *name*."""
    tree = ast.parse(path.read_text())
    return sum(
        1 for node in ast.walk(tree)
        if name in (getattr(node, "attr", None), getattr(node, "id", None))
    )


#: The modules holding the three KV clients.
CLIENT_MODULES = ["dpu/cluster.py", "sharding/client.py", "georep/client.py"]


def test_kv_clients_stand_on_one_core():
    """One client core: the three KV clients subclass it, only it calls
    ``call_guarded``, none builds its own ``RpcClient``, and their
    constructor knobs are pinned so a deleted one cannot come back."""
    from repro.dpu.cluster import FailoverKvClient
    from repro.georep.client import GeoKvClient
    from repro.georep.region import LogShipper
    from repro.sharding.client import ShardedKvClient
    from repro.sharding.core import KvClientCore

    for client in (ShardedKvClient, FailoverKvClient, GeoKvClient):
        assert issubclass(client, KvClientCore), client
    guarded = [
        str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
        if _uses_of(path, "call_guarded")
    ]
    assert guarded == ["sharding/core.py"]
    for module in CLIENT_MODULES:
        assert _uses_of(SRC / module, "RpcClient") == 0, module
    knobs = {
        cls.__name__: list(inspect.signature(cls).parameters)
        for cls in (ShardedKvClient, FailoverKvClient, GeoKvClient,
                    LogShipper)
    }
    assert knobs == {
        "ShardedKvClient": ["sim", "cluster", "name", "cache", "batch_limit",
                            "timeout", "retries", "deadline", "history"],
        "FailoverKvClient": ["sim", "network", "name", "cluster", "history"],
        "GeoKvClient": ["sim", "cluster", "name", "home", "preference",
                        "timeout", "retries", "rounds", "stale_bound",
                        "brownout", "retry_budget", "history"],
        "LogShipper": ["sim", "region", "peer", "peer_address"],
    }


class TestDocstringsEverywhere:
    def test_every_module_has_a_docstring(self):
        missing = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            if not (
                tree.body
                and isinstance(tree.body[0], ast.Expr)
                and isinstance(tree.body[0].value, ast.Constant)
                and isinstance(tree.body[0].value.value, str)
            ):
                missing.append(str(path.relative_to(SRC)))
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_class_documented(self):
        undocumented = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    if ast.get_docstring(node) is None:
                        undocumented.append(
                            f"{path.relative_to(SRC)}::{node.name}"
                        )
        assert not undocumented, f"classes without docstrings: {undocumented}"
