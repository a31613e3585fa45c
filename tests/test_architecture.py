"""Architectural discipline checks.

The README promises: "the DPU datapaths are composed only of hardware
components ... and they never call into ``repro.baseline`` — the only place
where syscalls, interrupts, copies, and CPU jitter exist." These tests
enforce that statically, so a refactor cannot quietly put a CPU back into
the CPU-free paths.
"""

import ast
import importlib.util
import inspect
import pathlib
import sys

import pytest

from repro.faults import FaultKind

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_spec = importlib.util.spec_from_file_location(
    "reachability", ROOT / "tools" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reachability  # its dataclasses look themselves up
_spec.loader.exec_module(reachability)

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
        "FailoverKvClient": ["sim", "network", "name", "cluster"],
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


#: What no root reaches and stays anyway: test oracles, kept by the
#: rule that reference implementations tests compare against are safety
#: code. Each entry says which tests lean on it.
UNREACHABLE_ALLOWED = {
    "repro.hw.net.switch.Network.one_way_delay":
        "the analytic frame delay test_hw_net pins the datapath to, ==",
    "repro.telemetry.export.PromFamily":
        "what parse_prometheus_text returns",
    "repro.telemetry.export.parse_prometheus_text":
        "the exporter tests parse prometheus_text output back with it",
}

@pytest.fixture(scope="module")
def reach():
    return reachability.Reachability()


def test_nothing_unreachable_but_the_allowed_oracles(reach):
    """Every module and def under ``src/repro`` is run by a registry
    row, a CLI, perfbench or an example (``tools/reachability.py``),
    except the oracles."""
    dead = [name for name, _lines in reach.unreachable()]
    assert dead == sorted(UNREACHABLE_ALLOWED)


def test_the_pass_reports_planted_dead_code(tmp_path):
    """The pin above cannot pass vacuously: an unimported module, an
    unreferenced def, a def only dead code calls, and a name only a
    package re-exports are all reported; what the CLI runs is not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.used import reexported\n")
    (package / "__main__.py").write_text(
        "from repro import used\n\nused.live()\n")
    (package / "used.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.value = 1\n"
        "    def get(self):\n        return self.value\n"
        "    def unused(self):\n        return 2\n\n\n"
        "def live():\n    return Box().get()\n\n\n"
        "def planted():\n    return only_from_dead_code()\n\n\n"
        "def only_from_dead_code():\n    return 3\n\n\n"
        "def reexported():\n    return 4\n")
    (package / "orphan.py").write_text("def anything():\n    return 5\n")
    assert reachability.unreachable(tmp_path) == [
        "repro.orphan",
        "repro.used.Box.unused",
        "repro.used.only_from_dead_code",
        "repro.used.planted",
        "repro.used.reexported",
    ]


#: Defaulted parameters that no live call passes and that stay anyway.
#: Only two kinds may: a deployment setting (a name, address or
#: component id), or a seam tests use to inject an RNG or a clock. At
#: most 12, each with the reason it stays.
UNSET_ALLOWED = {
    "repro.telemetry.timeseries.Series.quantile(now)":
        "clock seam: tests end the window at an explicit instant",
}


def test_every_option_is_passed_by_something_that_runs(reach):
    """Every defaulted parameter of a live def outside ``repro.eval`` is
    passed by a live call (``tools/reachability.py``), bar the allowed
    seams: an option only tests set keeps alive a branch nothing runs."""
    assert len(UNSET_ALLOWED) <= 12
    assert reach.unset_options() == sorted(UNSET_ALLOWED)


def test_the_census_reports_only_a_default_nobody_passes(tmp_path):
    """The pin above cannot pass vacuously: of five defaulted parameters
    only the one no call passes is reported, not one passed by keyword,
    one passed by position, one forwarded through ``**kw``, or one on a
    def registered as a callback."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        "from repro import lib\n\n"
        "lib.by_keyword(1, flag=True)\n"
        "lib.by_position(1, 2)\n"
        "lib.forwarding(level=3)\n"
        "lib.register(lib.handler)\n"
        "lib.unset()\n")
    (package / "lib.py").write_text(
        "def by_keyword(x, flag=False):\n    return x, flag\n\n\n"
        "def by_position(x, y=0):\n    return x + y\n\n\n"
        "def target(level=0):\n    return level\n\n\n"
        "def forwarding(**kw):\n    return target(**kw)\n\n\n"
        "def handler(request, retries=1):\n    return request, retries\n\n\n"
        "def register(callback):\n    return callback\n\n\n"
        "def unset(knob=5):\n    return knob\n")
    assert reachability.unset_options(tmp_path) == ["repro.lib.unset(knob)"]


def test_every_fault_kind_is_consulted_where_something_runs(reach):
    """A FaultPlan cannot name a fault that silently injects nothing:
    every FaultKind is passed to an injector's ``fires``/``active`` in
    code a root reaches."""
    consulted = set()
    for unit in reach.live_units():
        for node in unit.nodes:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("fires", "active")
                        and len(call.args) == 2
                        and isinstance(call.args[1], ast.Attribute)
                        and getattr(call.args[1].value, "id", None)
                        == "FaultKind"):
                    consulted.add(call.args[1].attr)
    assert consulted == {kind.name for kind in FaultKind}
