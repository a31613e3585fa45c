#!/usr/bin/env python3
"""What under ``src/repro`` nothing runs: a stdlib-``ast`` reachability pass.

The roots are what the project actually runs:

* the ``__main__`` CLIs under ``src/repro`` (``repro.eval``, and through
  its registry every experiment row; ``repro.bench``; ``repro.workload``)
  and the ``if __name__ == "__main__":`` block of any other module
  (``python -m repro.eval.verify``);
* every ``examples/*.py`` and ``perfbench/*.py`` script, whole.

From the roots the pass follows references to a fixpoint, so a def that
only dead code references is dead too:

* a name resolves lexically, to a def of its own module or to what an
  import binds it to; ``from pkg import X`` is followed through the
  package's re-exports to the module that defines ``X``;
* ``mod.X`` resolves the same way when ``mod`` names a module;
* any other ``obj.attr`` (and ``getattr(obj, "attr")``) keeps every
  method called ``attr`` of a live class. Dunders of a live class are
  live: Python calls them;
* an import only binds a name, it is not a use. Neither is a package
  ``__init__`` re-exporting a name, nor ``__all__``, nor an annotation.

A module is live once something in it is (or it is a root); its
top-level statements then run. The pass prints every module nothing
reaches and every def, public or private, nothing reaches inside a live
module, with its size in lines.

Usage: ``python tools/reachability.py`` (or ``make reachability``).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent

#: Scripts outside the package that are roots, whole (globs under the
#: repository root).
SCRIPT_ROOTS = ("examples/*.py", "perfbench/*.py")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class Unit:
    """Code that is live or not as a whole: a module's top-level
    statements, a class body, or a function body."""

    module: str
    qualname: str  # "" for a module's top-level statements
    nodes: List[ast.AST]
    lines: int = 0
    is_class: bool = False
    #: A class's methods by name (a property and its setter share one).
    methods: Dict[str, List["Unit"]] = field(default_factory=dict)

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.qualname}" if self.qualname else self.module


#: What an import binds a name to: a module, or ``(module, name)``.
Binding = Union[str, Tuple[str, str]]


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: Path
    body: Unit
    #: Top-level functions and classes by name.
    defs: Dict[str, Unit] = field(default_factory=dict)
    #: What each import anywhere in the file binds, by the bound name.
    bindings: Dict[str, Binding] = field(default_factory=dict)
    #: The ``if __name__ == "__main__":`` block, a root when present.
    main: Optional[Unit] = None


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in test.comparators))


def _header(node: ast.AST) -> List[ast.AST]:
    """What runs where a def is defined: decorators, defaults, bases."""
    parts: List[ast.AST] = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return parts + node.bases + node.keywords
    return parts + node.args.defaults + [d for d in node.args.kw_defaults if d]


def _def_unit(module: str, node: ast.AST, owner: str = "") -> Unit:
    qualname = f"{owner}.{node.name}" if owner else node.name
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    unit = Unit(module, qualname, [], node.end_lineno - first + 1,
                isinstance(node, ast.ClassDef))
    if not unit.is_class:
        unit.nodes = list(node.body)
        return unit
    for child in node.body:
        if isinstance(child, _FUNCTIONS):
            unit.nodes += _header(child)
            method = _def_unit(module, child, qualname)
            unit.methods.setdefault(child.name, []).append(method)
        else:
            unit.nodes.append(child)
    return unit


def _bind(info: ModuleInfo, node: ast.AST, package: str) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname:
                info.bindings[alias.asname] = alias.name
            else:
                top = alias.name.split(".")[0]
                info.bindings[top] = top
    elif isinstance(node, ast.ImportFrom):
        source = node.module or ""
        if node.level:
            base = package.rsplit(".", node.level - 1)[0]
            source = f"{base}.{source}" if source else base
        for alias in node.names:
            info.bindings[alias.asname or alias.name] = (source, alias.name)


def _parse(name: str, path: Path, package: str, whole: bool) -> ModuleInfo:
    """*path* as a module; a *whole* one (a script root) is one unit."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    info = ModuleInfo(name, path, Unit(name, "", []))
    for node in tree.body:
        if whole:
            info.body.nodes.append(node)
        elif _is_main_guard(node):
            info.main = Unit(name, "__main__", [node])
        elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            info.body.nodes += _header(node)
            info.defs[node.name] = _def_unit(name, node)
        else:
            info.body.nodes.append(node)
    for node in ast.walk(tree):
        _bind(info, node, package)
    return info


def _references(nodes: List[ast.AST]) -> Iterator[ast.AST]:
    """Every ``Name``, ``Attribute`` and ``getattr`` string under *nodes*,
    skipping annotations (never evaluated here)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.AnnAssign):
            stack += [n for n in (node.target, node.value) if n is not None]
            continue
        if isinstance(node, ast.arg):
            continue
        if isinstance(node, _FUNCTIONS):
            stack += node.body + _header(node)
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr", "setattr")
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            yield node.args[1]
        stack.extend(ast.iter_child_nodes(node))


class Reachability:
    """The fixpoint over every module under ``src/repro`` and the roots."""

    def __init__(self, root: Path = ROOT):
        self.modules: Dict[str, ModuleInfo] = {}
        src = root / "src"
        for path in sorted((src / "repro").rglob("*.py")):
            parts = list(path.relative_to(src).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
                package = ".".join(parts)
            else:
                package = ".".join(parts[:-1])
            name = ".".join(parts)
            self.modules[name] = _parse(name, path, package, whole=False)
        self.scripts = [
            _parse(f"<{path.relative_to(root)}>", path, "", whole=True)
            for pattern in SCRIPT_ROOTS for path in sorted(root.glob(pattern))
        ]
        self.live_modules = set()
        self._live: Dict[int, Unit] = {}  # by id(): units are not hashable
        self._attrs = set()
        self._work: List[Tuple[ModuleInfo, Unit]] = []
        self._solve()

    # -- marking ------------------------------------------------------------
    def _mark(self, info: ModuleInfo, unit: Unit) -> None:
        if id(unit) not in self._live:
            self._live[id(unit)] = unit
            self._work.append((info, unit))

    def _mark_module(self, name: str) -> None:
        """*name* and the packages above it run."""
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            info = self.modules.get(prefix)
            if info is not None and prefix not in self.live_modules:
                self.live_modules.add(prefix)
                self._mark(info, info.body)

    def _mark_target(self, target: Union[None, str, Unit]) -> None:
        if isinstance(target, Unit):
            self._mark_module(target.module)
            self._mark(self.modules[target.module], target)
        elif target is not None:
            self._mark_module(target)

    # -- resolution ---------------------------------------------------------
    def _resolve(self, binding: Binding,
                 seen: Tuple = ()) -> Union[None, str, Unit]:
        """The module or def a binding names, through re-exports."""
        if isinstance(binding, str):
            return binding if binding in self.modules else None
        module, name = binding
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        info = self.modules.get(module)
        if info is None or binding in seen:
            return None
        if name in info.defs:
            return info.defs[name]
        if name in info.bindings:
            return self._resolve(info.bindings[name], seen + (binding,))
        return module  # a module-level variable: its module runs

    def _lookup(self, info: ModuleInfo, unit: Unit, node: ast.AST):
        """The module, def, or (from a class body) methods that a
        ``Name`` or ``Attribute`` chain names, if any."""
        if isinstance(node, ast.Name):
            if unit.is_class and node.id in unit.methods:
                return unit.methods[node.id]
            if node.id in info.defs:
                return info.defs[node.id]
            if node.id in info.bindings:
                return self._resolve(info.bindings[node.id])
        elif isinstance(node, ast.Attribute):
            base = self._lookup(info, unit, node.value)
            if isinstance(base, str):
                return self._resolve((base, node.attr))
        return None

    # -- the fixpoint -------------------------------------------------------
    def _scan(self, info: ModuleInfo, unit: Unit) -> None:
        for node in _references(unit.nodes):
            if isinstance(node, ast.Constant):
                self._attrs.add(node.value)
                continue
            if isinstance(node, ast.Attribute):
                self._attrs.add(node.attr)
            elif not isinstance(node.ctx, ast.Load):
                continue  # a Name being bound, not used
            target = self._lookup(info, unit, node)
            for one in target if isinstance(target, list) else [target]:
                self._mark_target(one)

    def _solve(self) -> None:
        for script in self.scripts:
            self._mark(script, script.body)  # all of it runs
        for info in self.modules.values():
            if info.main is not None or info.name.endswith(".__main__"):
                self._mark_module(info.name)
                if info.main is not None:
                    self._mark(info, info.main)
        while self._work:
            while self._work:
                self._scan(*self._work.pop())
            for info in self.modules.values():
                for cls in info.defs.values():
                    if cls.is_class and id(cls) in self._live:
                        self._mark_called_methods(info, cls)

    def _mark_called_methods(self, info: ModuleInfo, cls: Unit) -> None:
        for name, methods in cls.methods.items():
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name in self._attrs:
                for method in methods:
                    self._mark(info, method)

    # -- the answer ---------------------------------------------------------
    def live_units(self) -> List[Unit]:
        """Every live unit under ``src/repro`` (not the script roots)."""
        return [u for u in self._live.values() if u.module in self.modules]

    def unreachable(self) -> List[Tuple[str, int]]:
        """``(dotted name, lines)`` of every dead module and every dead
        def inside a live one, sorted by name."""
        dead: List[Tuple[str, int]] = []
        for name, info in self.modules.items():
            if name not in self.live_modules:
                dead.append((name, len(info.path.read_text().splitlines())))
                continue
            for unit in info.defs.values():
                dead += self._dead_in(unit)
        return sorted(dead)

    def _dead_in(self, unit: Unit) -> List[Tuple[str, int]]:
        if id(unit) not in self._live:
            return [(unit.dotted, unit.lines)]
        return [found for methods in unit.methods.values()
                for method in methods for found in self._dead_in(method)]


def unreachable(root: Path = ROOT) -> List[str]:
    """Dotted names of everything under ``src/repro`` no root reaches."""
    return [name for name, _lines in Reachability(root).unreachable()]


def main() -> None:
    dead = Reachability().unreachable()
    for name, lines in dead:
        print(f"{name}  ({lines} lines)")
    print(f"{len(dead)} unreachable, {sum(n for _, n in dead)} lines",
          file=sys.stderr)


if __name__ == "__main__":
    main()
