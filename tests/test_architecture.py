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


#: The circuit breaker's allow/record protocol.
BREAKER_PROTOCOL = ("allow", "record_success", "record_failure")


def _breaker_speakers():
    """``module:Class.method`` of every def that speaks the breaker
    protocol (outside the breaker itself)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and any(
                    getattr(node, "attr", None) in BREAKER_PROTOCOL
                    for node in ast.walk(fn)
                ):
                    found.append(f"{path.relative_to(SRC)}:"
                                 f"{cls.name}.{fn.name}")
    return found


def test_kv_clients_stand_on_one_core():
    """One client core: the three KV clients subclass it, only its
    candidate walk speaks the breaker protocol, none builds its own
    ``RpcClient``, and their constructor knobs are pinned so a deleted
    one cannot come back."""
    from repro.dpu.cluster import FailoverKvClient
    from repro.georep.client import GeoKvClient
    from repro.georep.region import LogShipper
    from repro.sharding.client import ShardedKvClient
    from repro.sharding.core import KvClientCore

    for client in (ShardedKvClient, FailoverKvClient, GeoKvClient):
        assert issubclass(client, KvClientCore), client
    # The log shipper guards its peer on its own loop; it is no KV client.
    assert _breaker_speakers() == [
        "georep/region.py:LogShipper._run",
        "sharding/core.py:KvClientCore._first_answer",
    ]
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


@pytest.fixture(scope="module")
def reach():
    return reachability.Reachability()


def test_nothing_unreachable_but_the_allowed_oracles(reach):
    """Every module and def under ``src/repro`` is run by a registry
    row, a CLI, perfbench, an example or a ``make`` tool
    (``tools/reachability.py``), with methods resolved through the
    receiver's class where the pass can tell it. A test oracle lives
    under ``tests/`` (``prometheus_reference.py``, ``hdl_reference.py``,
    ``isa_reference.py``), not in ``src/``."""
    dead = [name for name, _lines in reach.unreachable()]
    assert dead == []


def _plant(tmp_path, main, lib):
    """A ``repro`` package whose CLI runs *main* over module ``lib``."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(main)
    (package / "lib.py").write_text(lib)
    return tmp_path


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


def test_an_export_map_entry_is_a_re_export(tmp_path):
    """A package's export map (``lazy_exports``) is read as the
    ``from … import`` lines it replaced: a name imported through it
    keeps its defining module's def, a name only the map exports is
    reported, and a live module's ``__getattr__``/``__dir__`` defs are
    kept, since Python calls them."""
    package = tmp_path / "src" / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def lazy_exports(package, exports):\n"
        "    return None, None, []\n")
    (package / "sub" / "__init__.py").write_text(
        "from repro import lazy_exports\n\n"
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
        "    \"impl\": (\"used\", \"only_exported\"),\n"
        "})\n")
    (package / "sub" / "impl.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def only_exported():\n    return 2\n\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n\n\n"
        "def __dir__():\n    return []\n")
    (package / "__main__.py").write_text(
        "from repro.sub import used\n\nused()\n")
    assert reachability.unreachable(tmp_path) == [
        "repro.sub.impl.only_exported"]


def test_a_method_is_kept_by_its_receivers_class_not_its_name(tmp_path):
    """Class resolution: ``text.partition("=")`` on a ``str`` does not
    keep ``Fabric.partition`` alive, nor does ``self.ledger.step(x)``
    keep ``Sim.step`` alive when ``self.ledger = Ledger()``; a call
    through ``self.sim = Sim()``, an annotation, a ``-> Cls`` return or
    a subclass's ``self`` does keep its method, as does an untyped
    receiver whose call fits the method's arguments."""
    root = _plant(tmp_path, (
        "from repro import lib\n\n"
        "lib.Runner().go('a=b')\n"
        "lib.by_annotation(lib.Fabric())\n"
        "lib.untyped(lib.Fabric())\n"), (
        "class Sim:\n"
        "    def step(self):\n        return 1\n"
        "    def run(self):\n        return 2\n\n\n"
        "class Traced(Sim):\n"
        "    def go(self):\n        return self.run()\n\n\n"
        "class Ledger:\n"
        "    def step(self, pieces):\n        return pieces\n\n\n"
        "class Link:\n"
        "    def cut(self):\n        return 3\n\n\n"
        "class Fabric:\n"
        "    def partition(self, src, dst):\n        return src, dst\n"
        "    def link(self) -> Link:\n        return Link()\n"
        "    def heal(self, src):\n        return src\n"
        "    def drain(self, src, dst, when):\n        return when\n\n\n"
        "class Runner:\n"
        "    def __init__(self):\n"
        "        self.sim = Traced()\n"
        "        self.ledger = Ledger()\n"
        "    def go(self, text: str):\n"
        "        self.sim.go()\n"
        "        self.ledger.step(text)\n"
        "        return text.partition('=')\n\n\n"
        "def by_annotation(fabric: Fabric):\n"
        "    return fabric.link().cut()\n\n\n"
        "def untyped(fabric):\n"
        "    return fabric.heal(1), fabric.drain(1, 2)\n"))
    assert reachability.unreachable(root) == [
        "repro.lib.Fabric.drain",
        "repro.lib.Fabric.partition",
        "repro.lib.Sim.step",
    ]


#: Defaulted parameters that no live call passes and that stay anyway.
#: Only two kinds may: a deployment setting (a name, address or
#: component id), or a seam tests use to inject an RNG, a clock or a
#: CLI's arguments. At most 12, each with the reason it stays.
UNSET_ALLOWED = {
    "repro.workload.__main__.main(argv)":
        "CLI seam: tests run the preview with explicit arguments",
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
    root = _plant(tmp_path, (
        "from repro import lib\n\n"
        "lib.by_keyword(1, flag=True)\n"
        "lib.by_position(1, 2)\n"
        "lib.forwarding(level=3)\n"
        "lib.register(lib.handler)\n"
        "lib.unset()\n"), (
        "def by_keyword(x, flag=False):\n    return x, flag\n\n\n"
        "def by_position(x, y=0):\n    return x + y\n\n\n"
        "def target(level=0):\n    return level\n\n\n"
        "def forwarding(**kw):\n    return target(**kw)\n\n\n"
        "def handler(request, retries=1):\n    return request, retries\n\n\n"
        "def register(callback):\n    return callback\n\n\n"
        "def unset(knob=5):\n    return knob\n"))
    assert reachability.unset_options(root) == ["repro.lib.unset(knob)"]


#: Attributes and dataclass fields live code stores and only tests read,
#: kept because a test observes the model through them. Each names the
#: test. The set may only shrink.
WRITE_ONLY_ALLOWED = {
    "repro.ebpf.verifier.VerifierReport.instructions_covered":
        "test_ebpf_verifier: both arms of a branch were walked",
    "repro.ebpf.vm.ExecutionResult.context":
        "test_ebpf_translate: the packet the program wrote, against "
        "the reference interpreter",
    "repro.ebpf.vm.ExecutionResult.helper_calls":
        "test_ebpf_translate: helper calls, against the reference "
        "interpreter",
    "repro.transport.homa.HomaSocket.unscheduled_only":
        "test_transport: a short message went without a grant",
    "repro.transport.tcp.TcpConnection.retransmissions":
        "test_transport_loss: a lost segment was retransmitted",
    "repro.transport.udp.UdpSocket.reassembly_evicted":
        "test_transport_loss: an incomplete datagram is evicted",
    "repro.verify.invariants.FinalStateResult.checked":
        "test_verify: a binding write was judged",
    "repro.verify.invariants.FinalStateResult.skipped":
        "test_verify: a non-binding write was skipped, not judged",
    "repro.verify.linearizability.KeyResult.linearization":
        "test_verify: the witness order the checker found",
}


def test_no_state_is_written_that_nothing_reads(reach):
    """Every attribute live code stores on an object of a class under
    ``src``, and every field of a live dataclass, is read by live code
    (``tools/reachability.py``), bar the allowed observation points: a
    counter nothing reads costs every run and tells nobody anything."""
    assert len(WRITE_ONLY_ALLOWED) <= 9
    assert reach.write_only() == sorted(WRITE_ONLY_ALLOWED)


def test_the_state_census_reports_only_what_nothing_reads(tmp_path):
    """The pin above cannot pass vacuously: of a counter read by a live
    method, one read through ``getattr``, one read only by dead code, a
    ``+=`` counter nothing reads, a stored field of a live dataclass and
    one nothing reads, only the unread ones are reported."""
    root = _plant(tmp_path, (
        "from repro import lib\n\n"
        "box = lib.Box()\n"
        "box.bump()\n"
        "print(box.total(), getattr(box, 'named'), lib.Row(1, 2).shown)\n"), (
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\n"
        "class Row:\n"
        "    shown: int\n"
        "    hidden: int\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.read = 0\n"
        "        self.named = 0\n"
        "        self.dead_read = 0\n"
        "        self.bumps = 0\n"
        "    def bump(self):\n"
        "        self.read += 1\n"
        "        self.bumps += 1\n"
        "    def total(self):\n        return self.read\n"
        "    def never_called(self):\n        return self.dead_read\n"))
    assert reachability.write_only(root) == [
        "repro.lib.Box.bumps",
        "repro.lib.Box.dead_read",
        "repro.lib.Row.hidden",
    ]


#: Parameters and fields every live call sets to one value that stay
#: settable. Five kinds may, each entry saying which: a deployment
#: *name* (a name, address, component or namespace id); *data*
#: an operation acts on (a path, key, length, query or metric prefix);
#: the *geometry* of a structure tests build in other shapes; an option
#: *perfbench* sets, whose API must keep working; an E19 *schedule*
#: shape declared in ``repro.eval``. The set may only shrink.
ONE_VALUE_ALLOWED = {
    "repro.apps.analytics.AnalyticsQuery(aggregate)='sum'": "data",
    "repro.apps.analytics.AnalyticsQuery(aggregate_column)='amount'": "data",
    "repro.apps.graph.CsrGraph.__init__(vertex_count)=300": "geometry",
    "repro.apps.graph.random_graph(vertex_count)=300": "geometry",
    "repro.datastruct.bptree.BPlusTree.__init__(order)=4": "geometry",
    "repro.dpu.cluster.FailoverKvClient.__init__(name)='chaos-client'": "name",
    "repro.ebpf.maps.HashMap.__init__(key_size)=8": "geometry",
    "repro.ebpf.maps.HashMap.__init__(max_entries)=65536": "geometry",
    "repro.ebpf.maps.HashMap.__init__(value_size)=8": "geometry",
    "repro.faults.plan.FaultPlan.probabilistic(component)='client.uplink'":
        "name",
    "repro.faults.plan.FaultPlan.probabilistic(name)='lossy-uplink'": "name",
    "repro.fs.ext4.HyperExtFs.mkdir(path)='/warehouse'": "data",
    "repro.fs.spiffy.LayoutAnnotation.__init__(name)='hyperext'": "name",
    "repro.hw.fpga.fabric.Fabric.slot_for(bitstream_name)='tenant-red'":
        "data",
    "repro.hw.net.link.Link.attach_faults(component)='client.uplink'": "name",
    "repro.hw.nvme.commands.NvmeCommand(namespace_id)=1": "name",
    "repro.hw.nvme.namespace.Namespace.__init__(namespace_id)=1": "name",
    "repro.hw.pcie.device.Bar(size)=16384": "geometry",
    "repro.sharding.cache.HotKeyCache.__init__(capacity)=32": "perfbench",
    "repro.sharding.cache.HotKeyCache.__init__(lease)=0.001": "perfbench",
    "repro.sharding.cluster.ShardedKvCluster.__init__(workers)=2": "perfbench",
    "repro.storage.corfu.CorfuClient.__init__(sequencer_address)='sequencer'":
        "name",
    "repro.telemetry.timeseries.Sampler.watch_prefix(prefix)="
    "'rpc.client.chaos-client'": "data",
    "repro.transport.rdma.RdmaNic.read(peer)='dpu-rdma'": "name",
    "repro.transport.rdma.RdmaNic.read(size)=64": "data",
    "repro.transport.tcp.TcpStack.connect(peer)='dpu'": "name",
    "repro.verify.nemesis.geo_plan(horizon)=0.3": "schedule",
    "repro.verify.nemesis.geo_plan(primary)='r1'": "name",
    "repro.verify.nemesis.geo_plan(regions)=('r1', 'r2', 'r3')": "name",
    "repro.verify.nemesis.primary_kill_plan(end)=0.24": "schedule",
    "repro.verify.nemesis.primary_kill_plan(primary)='r1'": "name",
    "repro.verify.nemesis.primary_kill_plan(regions)=('r1', 'r2', 'r3')":
        "name",
    "repro.verify.nemesis.primary_kill_plan(start)=0.1": "schedule",
    "repro.verify.nemesis.sharded_plan(horizon)=0.25": "schedule",
    "repro.workload.generator.OpenLoopTraffic.__init__(deadline)=0.005":
        "perfbench",
    "repro.workload.popularity.ZipfKeys.hot_mass(top)=8": "data",
}


def test_every_setting_varies_or_is_allowed(reach):
    """Every parameter of a live def outside ``repro.eval``, and every
    field of a live dataclass, that every live call sets to one literal
    or module constant is on the allowlist (``tools/reachability.py``):
    anything else is a constant in all but name, and its other values
    select branches nothing runs."""
    kinds = {"name", "data", "geometry", "perfbench", "schedule"}
    assert set(ONE_VALUE_ALLOWED.values()) <= kinds
    assert len(ONE_VALUE_ALLOWED) <= 36
    assert reach.one_value() == sorted(ONE_VALUE_ALLOWED)


def test_the_value_census_reports_only_one_value_settings(tmp_path):
    """The pin above cannot pass vacuously: a parameter two calls set
    to the same module constant and the literal it names, and a field
    every construction sets alike, are reported with the value; one set
    to two values, one passed a variable, a field live code changes
    after construction, and a default nobody passes (the options
    census's) are not."""
    root = _plant(tmp_path, (
        "import sys\n\n"
        "from repro import lib\n\n"
        "lib.send(lib.PORT, 1)\n"
        "lib.send(8080, 2)\n"
        "lib.send(8080, len(sys.argv))\n"
        "lib.Job(4, 0).done += 1\n"
        "lib.Job(4, 0)\n"), (
        "from dataclasses import dataclass\n\n"
        "PORT = 8000 + 80\n\n\n"
        "def send(port, size, retries=3):\n"
        "    return port, size, retries\n\n\n"
        "@dataclass\n"
        "class Job:\n"
        "    cores: int\n"
        "    done: int\n"))
    assert reachability.one_value(root) == [
        "repro.lib.Job(cores)=4",
        "repro.lib.send(port)=8080",
    ]


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


def test_a_hot_forwarder_is_the_c_callable_it_forwards_to():
    """A hot-path method that only forwards to a C callable is that
    callable, bound at construction: calling it enters no Python frame
    (DESIGN §2). Each is a ``partial`` or a bound C method, with no
    ``__code__`` of its own."""
    from repro.ebpf import BpfVm, HashMap, assemble
    from repro.sim import Simulator
    from repro.telemetry import Histogram

    sim = Simulator()
    hot = {
        "Simulator.event": sim.event, "Simulator.timeout": sim.timeout,
        "Simulator.process": sim.process,
        "BpfVm.run": BpfVm(assemble("mov r0, 0\nexit")).run,
        "HashMap.find": HashMap(8, 8).find,
        "Histogram.observe": Histogram("h").observe,
    }
    for name, bound in hot.items():
        assert not inspect.isfunction(bound) and not inspect.ismethod(bound), name
        assert not hasattr(bound, "__code__"), name
