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

Over the live code it then takes a census of options: every defaulted
parameter of a live def outside ``repro.eval`` that no live call passes
(see :class:`_Census` for what counts as passing). Such a parameter is
a constant in all but name, and any branch only its other values select
is dead.

Usage: ``python tools/reachability.py`` (or ``make reachability``)
prints both lists, each followed by its total.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

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
    #: The ``def`` or ``class`` statement (None for a module's body).
    node: Optional[ast.AST] = None

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
                isinstance(node, ast.ClassDef), node=node)
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

    def unset_options(self) -> List[str]:
        """``module.def(param)`` of every defaulted parameter of a live
        def outside ``repro.eval`` that no live call passes, sorted."""
        return _Census(self).unset()


#: Where the census does not look for options: a registry row's ``run_*``
#: signature is that experiment's declared config, which tests shrink.
CENSUS_SKIPS = ("repro.eval",)

#: Where an expression is handed on as a value rather than used in place:
#: a def found there may be called later with any arguments.
_PASSING = (ast.Call, ast.keyword, ast.Assign, ast.Return, ast.Dict,
            ast.List, ast.Tuple, ast.Set, ast.IfExp)


def _walk(nodes: List[ast.AST]) -> Iterator[Tuple[ast.AST, Optional[ast.AST]]]:
    """``(node, parent)`` for every node under *nodes*, skipping
    annotations (never evaluated here)."""
    stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [(n, None) for n in nodes]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        skip = (getattr(node, "annotation", None), getattr(node, "returns", None))
        stack += [(child, node) for child in ast.iter_child_nodes(node)
                  if child not in skip and not isinstance(child, ast.arg)]


def _is_call_to(node: Optional[ast.AST], *names: str) -> bool:
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return (getattr(func, "id", None) in names
            or getattr(func, "attr", None) in names)


class _Census:
    """Which defaulted parameters live calls pass.

    A call sets a parameter by keyword or by position. ``partial(f, …)``
    is a call of ``f``, and calls of the name it is bound to go on from
    its arguments. Calling a class calls the ``__init__`` it has or
    inherits, and ``super().__init__(…)`` calls the base's. A def handed
    on as a value (a handler, a callback), or a call with ``*args`` or
    ``**kwargs``, sets every parameter. A callee that does not resolve
    to a def is matched by name, so the census errs towards "set".
    """

    def __init__(self, reach: Reachability):
        self.reach = reach
        self.infos = dict(reach.modules)
        self.infos.update((s.name, s) for s in reach.scripts)
        self.by_name: Dict[str, List[Unit]] = {}
        for info in reach.modules.values():
            for unit in info.defs.values():
                if unit.is_class:
                    init = self._init_of(info, unit)
                    if init is not None:
                        self.by_name.setdefault(unit.node.name, []).append(init)
                    for methods in unit.methods.values():
                        for method in methods:
                            if method.node.name != "__init__":
                                self._index(method)
                else:
                    self._index(unit)
        self.passed: Dict[int, Set[str]] = {}  # by id(def unit)
        #: Names a ``partial`` is bound to: ``(def, arguments it binds)``.
        self.aliases: Dict[str, List[Tuple[Unit, int]]] = {}
        live = list(reach._live.values())
        for unit in live:
            for node, _parent in _walk(unit.nodes):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    self._alias(self.infos[unit.module], unit, node)
        for unit in live:
            info = self.infos[unit.module]
            for node, parent in _walk(unit.nodes):
                if isinstance(node, ast.Call):
                    self._call(info, unit, node)
                elif (isinstance(parent, _PASSING)
                      and isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load)
                      and getattr(parent, "func", None) is not node
                      and not _is_call_to(parent, "isinstance", "issubclass",
                                          "partial")):
                    self._value(info, unit, node)

    def _index(self, unit: Unit) -> None:
        self.by_name.setdefault(unit.node.name, []).append(unit)

    # -- what a name calls --------------------------------------------------
    def _init_of(self, info: ModuleInfo, cls: Unit,
                 seen: Tuple = ()) -> Optional[Unit]:
        """The ``__init__`` *cls* has or inherits, if it is in ``src``."""
        if "__init__" in cls.methods:
            return cls.methods["__init__"][0]
        for base in cls.node.bases:
            found = self.reach._lookup(info, info.body, base)
            if isinstance(found, Unit) and found.is_class and found not in seen:
                init = self._init_of(self.infos[found.module], found,
                                     seen + (cls,))
                if init is not None:
                    return init
        return None

    def _enclosing_class(self, unit: Unit) -> Optional[Unit]:
        """The class *unit* is a method of, if it is one."""
        if "." not in unit.qualname:
            return None
        cls = self.infos[unit.module].defs.get(unit.qualname.split(".")[0])
        return cls if cls is not None and cls.is_class else None

    def _resolved(self, info: ModuleInfo, target) -> List[Unit]:
        if isinstance(target, list):
            return target
        if isinstance(target, Unit):
            if not target.is_class:
                return [target]
            init = self._init_of(self.infos[target.module], target)
            return [init] if init is not None else []
        return []

    def _callees(self, info: ModuleInfo, unit: Unit,
                 func: ast.AST) -> List[Tuple[Unit, int]]:
        """The defs a call of *func* may run, each with the number of
        positional arguments bound before the call's own."""
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            if _is_call_to(func.value, "super"):
                cls = self._enclosing_class(unit)
                bases = [] if cls is None else [
                    self.reach._lookup(info, info.body, b) for b in cls.node.bases]
                return [(init, 0) for b in bases
                        for init in self._resolved(info, b)]
            base = self.reach._lookup(info, info.body, func.value)
            return [(init, 1) for init in self._resolved(info, base)]
        if isinstance(func, ast.Name) and func.id == "cls":
            cls = self._enclosing_class(unit)
            return [(init, 0) for init in self._resolved(info, cls)]
        if not isinstance(func, (ast.Name, ast.Attribute)):
            return []
        found = self._resolved(info, self.reach._lookup(info, unit, func))
        name = func.id if isinstance(func, ast.Name) else func.attr
        if not found:
            found = self.by_name.get(name, [])
        return [(d, 0) for d in found] + self.aliases.get(name, [])

    def _alias(self, info: ModuleInfo, unit: Unit, assign: ast.Assign) -> None:
        """``name = partial(f, …)`` (either arm of an ``if``-expression)."""
        target = assign.targets[0]
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        values = [assign.value]
        while values:
            value = values.pop()
            if isinstance(value, ast.IfExp):
                values += [value.body, value.orelse]
            elif name and _is_call_to(value, "partial") and value.args:
                bound = len(value.args) - 1
                self.aliases.setdefault(name, []).extend(
                    (d, n + bound) for d, n in
                    self._callees(info, unit, value.args[0]))

    # -- what a call passes -------------------------------------------------
    def _call(self, info: ModuleInfo, unit: Unit, call: ast.Call) -> None:
        func, args = call.func, call.args
        if _is_call_to(call, "partial") and args:
            func, args = args[0], args[1:]
        spread = (any(isinstance(a, ast.Starred) for a in args)
                  or any(k.arg is None for k in call.keywords))
        for callee, bound in self._callees(info, unit, func):
            if spread:
                self._set_all(callee)
                continue
            names = self.passed.setdefault(id(callee), set())
            names.update(_positional(callee)[:bound + len(args)])
            names.update(k.arg for k in call.keywords)

    def _value(self, info: ModuleInfo, unit: Unit, node: ast.AST) -> None:
        found = self._resolved(info, self.reach._lookup(info, unit, node))
        if not found and isinstance(node, ast.Attribute):
            found = self.by_name.get(node.attr, [])
        for callee in found:
            self._set_all(callee)

    def _set_all(self, callee: Unit) -> None:
        self.passed.setdefault(id(callee), set()).update(_defaulted(callee))

    # -- the answer ---------------------------------------------------------
    def unset(self) -> List[str]:
        found = []
        for unit in self.reach.live_units():
            if (unit.is_class or unit.node is None
                    or unit.module.startswith(CENSUS_SKIPS)):
                continue
            passed = self.passed.get(id(unit), set())
            found += [f"{unit.dotted}({name})" for name in _defaulted(unit)
                      if name not in passed]
        return sorted(found)


def _is_method(unit: Unit) -> bool:
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in unit.node.decorator_list)
    return "." in unit.qualname and not static


def _positional(unit: Unit) -> List[str]:
    """The parameters a call's positional arguments fill, in order."""
    args = unit.node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    return names[1:] if _is_method(unit) else names


def _defaulted(unit: Unit) -> List[str]:
    args = unit.node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    return (names[len(names) - len(args.defaults):]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def unreachable(root: Path = ROOT) -> List[str]:
    """Dotted names of everything under ``src/repro`` no root reaches."""
    return [name for name, _lines in Reachability(root).unreachable()]


def unset_options(root: Path = ROOT) -> List[str]:
    """Every defaulted parameter of a live def no live call passes."""
    return Reachability(root).unset_options()


def main() -> None:
    reach = Reachability()
    dead = reach.unreachable()
    for name, lines in dead:
        print(f"{name}  ({lines} lines)")
    print(f"{len(dead)} unreachable, {sum(n for _, n in dead)} lines")
    unset = reach.unset_options()
    for name in unset:
        print(name)
    print(f"{len(unset)} defaulted parameters no live call passes")


if __name__ == "__main__":
    main()
