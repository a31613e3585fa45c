#!/usr/bin/env python3
"""What under ``src/repro`` nothing runs, needs or varies: a stdlib-``ast`` pass.

The roots are what the project actually runs:

* the ``__main__`` CLIs under ``src/repro`` (``repro.eval``, and through
  its registry every experiment row; ``repro.bench``; ``repro.workload``)
  and the ``if __name__ == "__main__":`` block of any other module
  (``python -m repro.eval.verify``);
* every ``examples/*.py`` and ``perfbench/*.py`` script, whole, and the
  tools ``make`` runs (``tools/entry_census.py``, ``tools/opcount.py``,
  ``tools/check_links.py``).

From the roots the pass follows references to a fixpoint, so a def that
only dead code references is dead too:

* a name resolves lexically, to a def of its own module or to what an
  import binds it to; ``from pkg import X`` is followed through the
  package's re-exports to the module that defines ``X``. An entry of a
  package's export map (``__getattr__, __dir__, __all__ =
  lazy_exports(__name__, {"sub": ("X", …)})``) is such a re-export;
* ``mod.X`` resolves the same way when ``mod`` names a module;
* ``obj.attr`` resolves through the class of ``obj`` when the pass can
  tell it (see :class:`_Types`): ``self``, a class, a local or attribute
  bound to ``Cls(…)``, or annotated ``Cls``, or returned by a def
  annotated ``-> Cls``. It keeps the method ``attr`` that ``Cls`` has or
  inherits and every override of it in a subclass. A value of no class
  under ``src`` (a ``str``, a container, a stdlib object) keeps none;
* any other ``obj.attr`` (and ``getattr(obj, "attr")``) keeps every
  method called ``attr`` of a live class, except that a call
  ``obj.attr(…)`` keeps only those its arguments fit. Dunders of a live
  class are live, and so are a live module's ``__getattr__`` and
  ``__dir__`` defs: Python calls them;
* an import only binds a name, it is not a use. Neither is a package
  ``__init__`` re-exporting a name, nor ``__all__``, nor an annotation.

A module is live once something in it is (or it is a root); its
top-level statements then run. Over the live code the pass then takes
four lists, each printed with its total:

1. every module nothing reaches, and every def, public or private,
   nothing reaches inside a live module, with its size in lines;
2. every defaulted parameter of a live def outside ``repro.eval`` that
   no live call passes (see :class:`_Census` for what counts as
   passing): a constant in all but name;
3. write-only state: every attribute live code stores (``=``, ``+=``)
   on an object of a class under ``src`` and no live code loads, and
   every dataclass field of a live class no live code reads
   (``getattr`` strings, ``asdict``, ``astuple``, ``fields``,
   ``replace``, ``vars`` and ``repr`` count as reads);
4. one-value parameters: every parameter of a live def outside
   ``repro.eval``, and every field of a live dataclass, that every live
   call or construction sets to the same literal or module constant
   (resolved to its value), bar the list-2 ones.

Usage: ``python tools/reachability.py`` (or ``make reachability``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple, Union)

ROOT = Path(__file__).resolve().parent.parent

#: Scripts outside the package that are roots, whole (globs under the
#: repository root).
SCRIPT_ROOTS = ("examples/*.py", "perfbench/*.py", "tools/entry_census.py",
                "tools/opcount.py", "tools/check_links.py")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Bases whose class-level names are instances of the class.
_ENUM_BASES = {"Enum", "IntEnum", "Flag", "IntFlag"}


@dataclass(eq=False)
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
    #: The class a method belongs to.
    owner: Optional["Unit"] = None

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.qualname}" if self.qualname else self.module


#: What an import binds a name to: a module, or ``(module, name)``.
Binding = Union[str, Tuple[str, str]]


class _Variable(NamedTuple):
    """A module-level name that is neither a def nor a module."""

    module: str
    name: str


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: Path
    body: Unit
    tree: ast.Module
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


def _def_unit(module: str, node: ast.AST, owner: Optional[Unit] = None) -> Unit:
    qualname = f"{owner.qualname}.{node.name}" if owner else node.name
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    unit = Unit(module, qualname, [], node.end_lineno - first + 1,
                isinstance(node, ast.ClassDef), node=node, owner=owner)
    if not unit.is_class:
        unit.nodes = list(node.body)
        return unit
    for child in node.body:
        if isinstance(child, _FUNCTIONS):
            unit.nodes += _header(child)
            method = _def_unit(module, child, unit)
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


def export_map(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """A package's export map, ``{submodule: names}``: the dict literal
    handed with ``__name__`` to the call bound to ``__getattr__`` at the
    top level (empty when there is none)."""
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and any(isinstance(target, ast.Name)
                        and target.id == "__getattr__"
                        for target in _targets(node.targets[0]))):
            continue
        args = node.value.args
        if (len(args) == 2 and isinstance(args[0], ast.Name)
                and args[0].id == "__name__" and isinstance(args[1], ast.Dict)):
            return {key.value: tuple(name.value for name in names.elts)
                    for key, names in zip(args[1].keys, args[1].values)}
    return {}


def _parse(name: str, path: Path, package: str, whole: bool) -> ModuleInfo:
    """*path* as a module; a *whole* one (a script root) is one unit,
    though its defs are indexed too (for what its classes inherit)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    info = ModuleInfo(name, path, Unit(name, "", []), tree)
    for node in tree.body:
        if whole:
            info.body.nodes.append(node)
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                info.defs[node.name] = _def_unit(name, node)
        elif _is_main_guard(node):
            info.main = Unit(name, "__main__", [node])
        elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            info.body.nodes += _header(node)
            info.defs[node.name] = _def_unit(name, node)
        else:
            info.body.nodes.append(node)
    for node in ast.walk(tree):
        _bind(info, node, package)
    for module, names in export_map(tree).items():
        for export in names:
            info.bindings[export] = (f"{package}.{module}", export)
    return info


# -- scopes ------------------------------------------------------------------

@dataclass(eq=False)
class _Scope:
    """Where a name is looked up: a module, a class body or a function
    (``node`` is the ``ClassDef``, ``def`` or ``lambda``)."""

    info: ModuleInfo
    node: Optional[ast.AST] = None
    #: The class of a class body, or of a method directly in one.
    cls: Optional[Unit] = None
    parent: Optional["_Scope"] = None


def _unit_scope(info: ModuleInfo, unit: Unit) -> _Scope:
    """The scope *unit*'s nodes run in."""
    module = _Scope(info)
    if unit.node is None:
        return module
    if unit.is_class:
        return _Scope(info, unit.node, unit, module)
    if unit.owner is not None:
        owner = unit.owner
        return _Scope(info, unit.node, owner,
                      _Scope(info, owner.node, owner, module))
    return _Scope(info, unit.node, None, module)


def _walk(nodes: Iterable[ast.AST], scope: _Scope, classes: Dict[int, Unit]
          ) -> Iterator[Tuple[ast.AST, Optional[ast.AST], _Scope]]:
    """``(node, parent, scope)`` for every node under *nodes*, skipping
    annotations (never evaluated here); a nested def, lambda or class
    body is walked in its own scope."""
    stack: List[Tuple[ast.AST, Optional[ast.AST], _Scope]] = [
        (n, None, scope) for n in nodes]
    while stack:
        node, parent, here = stack.pop()
        yield node, parent, here
        if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
            if not isinstance(node, ast.Lambda):
                stack += [(n, node, here) for n in _header(node)]
            else:
                stack += [(n, node, here) for n in
                          node.args.defaults + [d for d in node.args.kw_defaults if d]]
            method_of = here.cls if isinstance(here.node, ast.ClassDef) else None
            inner = _Scope(here.info, node, method_of, here)
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            stack += [(n, node, inner) for n in body]
            continue
        if isinstance(node, ast.ClassDef):
            stack += [(n, node, here) for n in _header(node)]
            inner = _Scope(here.info, node, classes.get(id(node)), here)
            stack += [(n, node, inner) for n in node.body]
            continue
        skip = (getattr(node, "annotation", None), getattr(node, "returns", None))
        stack += [(child, node, here) for child in ast.iter_child_nodes(node)
                  if child not in skip and not isinstance(child, ast.arg)]


def _getattr_name(node: ast.AST) -> Optional[str]:
    """The attribute a ``getattr``/``hasattr``/``setattr`` call names."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr")
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def _decorators(node: ast.AST) -> Set[str]:
    return {getattr(d, "id", None) or getattr(d, "attr", None)
            for d in getattr(node, "decorator_list", ())}


#: Decorators that leave a method's signature as written.
_PLAIN_DECORATORS = {"staticmethod", "classmethod", "abstractmethod",
                     "contextmanager"}

#: A call's shape: positional count, keyword names, any ``*``/``**`` spread.
Shape = Tuple[int, FrozenSet[str], bool]


def _shape(call: ast.Call) -> Shape:
    spread = (any(isinstance(a, ast.Starred) for a in call.args)
              or any(k.arg is None for k in call.keywords))
    return (len(call.args), frozenset(k.arg for k in call.keywords if k.arg),
            spread)


def _accepts(unit: Unit, shape: Shape) -> bool:
    """Whether a call of *shape* fits *unit*'s signature."""
    npos, keywords, spread = shape
    decorators = _decorators(unit.node)
    if spread or decorators - _PLAIN_DECORATORS:
        return True  # a property's value is called, or a wrapper's
    args = unit.node.args
    params = args.posonlyargs + args.args
    if _is_method(unit):
        params = params[1:]
    if npos > len(params) and args.vararg is None:
        return False
    named = {a.arg for a in params[npos:] + args.kwonlyargs}
    if args.kwarg is None and not keywords <= named:
        return False
    required = params[npos:len(params) - len(args.defaults)]
    required += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is None]
    return all(a.arg in keywords for a in required)


# -- types -------------------------------------------------------------------

#: A value the pass can type is one of these, or ``FOREIGN``: of no
#: class under ``src`` or a script root (a ``str``, a container, a
#: stdlib object), so none of its attributes is a method of ours.
FOREIGN = ("x", None)
Kind = Tuple[str, Optional[Unit]]  # ("i", cls) an instance, ("c", cls) a class
Types = Optional[FrozenSet[Kind]]  # None: unknown

_FOREIGN = frozenset([FOREIGN])

#: Builtins whose call returns a value of no class of ours.
_FOREIGN_CALLS = {
    "str", "int", "float", "bool", "bytes", "bytearray", "complex", "list",
    "dict", "set", "frozenset", "tuple", "len", "range", "sum", "abs",
    "round", "repr", "format", "hash", "id", "isinstance", "issubclass",
    "hasattr", "callable", "ord", "chr", "hex", "bin", "oct", "sorted",
    "enumerate", "zip", "map", "filter", "any", "all", "divmod", "pow",
    "open", "memoryview", "object", "print", "reversed", "iter",
}

#: Annotations (builtin or typing names) of values of no class of ours.
_FOREIGN_ANNOTATIONS = _FOREIGN_CALLS | {
    "None", "List", "Dict", "Set", "FrozenSet", "Tuple", "Sequence",
    "Mapping", "MutableMapping", "Iterable", "Iterator", "Generator",
    "Deque", "DefaultDict", "OrderedDict", "Callable", "AbstractSet",
    "Awaitable", "Coroutine", "deque", "defaultdict", "Random", "Path",
}

#: Local-binding sources: an expression, an annotation, or unknown.
_UNKNOWN = ("unknown", None)


def _targets(target: ast.AST) -> Iterator[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _targets(element)
    elif isinstance(target, ast.Starred):
        yield from _targets(target.value)
    else:
        yield target


def _binders(nodes: Iterable[ast.AST]) -> Dict[str, List[Tuple[str, ast.AST]]]:
    """What binds each name in one scope's own code: ``("value", expr)``,
    ``("ann", annotation)`` or unknown (a loop, ``with``, unpacking)."""
    found: Dict[str, List[Tuple[str, ast.AST]]] = {}
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            found.setdefault(node.name, []).append(_UNKNOWN)
            stack += _header(node)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found.setdefault(target.id, []).append(("value", node.value))
                else:
                    for name in _targets(target):
                        if isinstance(name, ast.Name):
                            found.setdefault(name.id, []).append(_UNKNOWN)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.setdefault(node.target.id, []).append(("ann", node.annotation))
        elif isinstance(node, ast.NamedExpr):
            found.setdefault(node.target.id, []).append(("value", node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            for name in _targets(node.target):
                if isinstance(name, ast.Name):
                    found.setdefault(name.id, []).append(_UNKNOWN)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for name in _targets(node.optional_vars):
                if isinstance(name, ast.Name):
                    found.setdefault(name.id, []).append(_UNKNOWN)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            found.setdefault(node.name, []).append(_UNKNOWN)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.setdefault(name, []).append(("import", None))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                found.setdefault(name, []).append(("outer", None))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _is_dataclass(cls: Unit) -> bool:
    return "dataclass" in _decorators(cls.node)


def _fields(cls: Unit) -> List[ast.AnnAssign]:
    """A dataclass's own fields, in order (``ClassVar`` excluded)."""
    found = []
    for node in cls.node.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann = node.annotation
            head = ann.value if isinstance(ann, ast.Subscript) else ann
            if (getattr(head, "id", None) or getattr(head, "attr", None)) != "ClassVar":
                found.append(node)
    return found


class _Types:
    """What the pass can tell about the class of a value.

    An expression's type is a set of ``("i", cls)`` (an instance of
    ``cls`` or a subclass), ``("c", cls)`` (the class itself) and
    ``FOREIGN``, or ``None`` when any part of it is unknown. Sources: a
    class called, ``self``/``cls``, a builtin call or literal, an
    annotation (parameter, field, ``-> Cls`` of the def called), a local
    assigned in its function, a module variable, and an attribute: the
    union of every value stored under that name on the class, its bases
    and its subclasses (``self.x = …``, a class-level value or
    annotation, or a store through another typed object). A store
    through an object of unknown type makes that attribute unknown
    everywhere.
    """

    def __init__(self, reach: "Reachability"):
        self.reach = reach
        self.by_node: Dict[int, Unit] = {}
        self.bases: Dict[Unit, List[Unit]] = {}
        self.subclasses: Dict[Unit, List[Unit]] = {}
        infos = list(reach.modules.values()) + reach.scripts
        for info in infos:
            for unit in info.defs.values():
                if unit.is_class:
                    self.by_node[id(unit.node)] = unit
        for info in infos:
            for unit in info.defs.values():
                if unit.is_class:
                    bases = []
                    for base in unit.node.bases:
                        if isinstance(base, ast.Subscript):
                            base = base.value
                        found = reach._lookup(info, info.body, base)
                        if isinstance(found, Unit) and found.is_class:
                            bases.append(found)
                            self.subclasses.setdefault(found, []).append(unit)
                    self.bases[unit] = bases
        self._locals: Dict[int, Dict[str, List[Tuple[str, ast.AST]]]] = {}
        self._memo: Dict[int, Types] = {}
        self._fields: Dict[Tuple[Unit, str], Types] = {}
        self._busy: Set[object] = set()
        #: Attribute stores: name -> [(receiver, source, scope)].
        self.stores: Dict[str, List[Tuple[ast.AST, Tuple[str, ast.AST], _Scope]]] = {}
        for info in infos:
            for node, _parent, scope in _walk(info.tree.body, _Scope(info),
                                              self.by_node):
                self._index_store(node, scope)

    def _index_store(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, ast.Assign):
            pairs = [(t, ("value", node.value)) for t in node.targets]
        elif isinstance(node, ast.AnnAssign):
            pairs = [(node.target, ("ann", node.annotation))]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.target, ("aug", None))]  # its type stays put
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            pairs = [(node.target, _UNKNOWN)]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            pairs = [(node.optional_vars, _UNKNOWN)]
        else:
            return
        for target, source in pairs:
            if not isinstance(target, ast.Attribute):
                source = _UNKNOWN
            for one in _targets(target):
                if isinstance(one, ast.Attribute):
                    self.stores.setdefault(one.attr, []).append(
                        (one.value, source, scope))

    # -- the class hierarchy -------------------------------------------------
    def related(self, cls: Unit) -> Set[Unit]:
        """*cls*, its bases and its subclasses, transitively."""
        found = {cls}
        for step in (self.bases, self.subclasses):
            stack = [cls]
            while stack:
                for other in step.get(stack.pop(), []):
                    if other not in found:
                        found.add(other)
                        stack.append(other)
        return found

    def _is_enum(self, cls: Unit) -> bool:
        return any(getattr(b, "attr", None) in _ENUM_BASES
                   or getattr(b, "id", None) in _ENUM_BASES
                   for b in cls.node.bases) or any(
            self._is_enum(base) for base in self.bases.get(cls, []))

    def descendants(self, cls: Unit) -> List[Unit]:
        found, stack = [cls], [cls]
        while stack:
            for sub in self.subclasses.get(stack.pop(), []):
                if sub not in found:
                    found.append(sub)
                    stack.append(sub)
        return found

    def definers(self, cls: Unit, name: str) -> List[Unit]:
        """The methods ``name`` may run on an instance of *cls*: the one
        it inherits or has, and every override in a subclass."""
        found: List[Unit] = []
        for sub in self.descendants(cls):
            for owner in self._first_definers(sub, name, set()):
                for method in owner.methods[name]:
                    if method not in found:
                        found.append(method)
        return found

    def _first_definers(self, cls: Unit, name: str, seen: Set[Unit]) -> List[Unit]:
        if cls in seen:
            return []
        seen.add(cls)
        if name in cls.methods:
            return [cls]
        return [owner for base in self.bases.get(cls, [])
                for owner in self._first_definers(base, name, seen)]

    # -- expressions ---------------------------------------------------------
    def of(self, expr: ast.AST, scope: _Scope) -> Types:
        key = id(expr)
        if key in self._memo:
            return self._memo[key]
        if key in self._busy:
            return None
        self._busy.add(key)
        try:
            found = self._infer(expr, scope)
        finally:
            self._busy.discard(key)
        self._memo[key] = found
        return found

    def _infer(self, expr: ast.AST, scope: _Scope) -> Types:
        if isinstance(expr, (ast.Constant, ast.JoinedStr, ast.List, ast.Dict,
                             ast.Set, ast.Tuple, ast.ListComp, ast.DictComp,
                             ast.SetComp, ast.GeneratorExp, ast.Compare,
                             ast.Lambda)):
            return _FOREIGN
        if isinstance(expr, (ast.BinOp, ast.UnaryOp)):
            parts = ([expr.left, expr.right] if isinstance(expr, ast.BinOp)
                     else [expr.operand])
            types = [self.of(p, scope) for p in parts]
            return _FOREIGN if all(t == _FOREIGN for t in types) else None
        if isinstance(expr, ast.BoolOp):
            return _union(self.of(v, scope) for v in expr.values)
        if isinstance(expr, ast.IfExp):
            return _union([self.of(expr.body, scope), self.of(expr.orelse, scope)])
        if isinstance(expr, ast.NamedExpr):
            return self.of(expr.value, scope)
        if isinstance(expr, ast.Name):
            return self._name(expr.id, scope)
        if isinstance(expr, ast.Attribute):
            base = self.reach._lookup(scope.info, scope.info.body, expr.value)
            if isinstance(base, str):
                return self._binding((base, expr.attr))
            return self.attribute(self.of(expr.value, scope), expr.attr)
        if isinstance(expr, ast.Call):
            return self._call(expr, scope)
        return None

    @staticmethod
    def _target(target: Unit) -> Types:
        """The type of a def or class named as a value."""
        return frozenset([("c", target)]) if target.is_class else _FOREIGN

    def _name(self, name: str, scope: _Scope) -> Types:
        here: Optional[_Scope] = scope
        while here is not None and here.node is not None:
            if isinstance(here.node, ast.ClassDef):
                # A class body's names are visible in it, not below it.
                if here is scope and name in self._locals_of(here.node):
                    return None
                here = here.parent
                continue
            sources = self._locals_of(here.node).get(name)
            if sources is not None:
                if any(kind == "outer" for kind, _ in sources):
                    here = here.parent
                    continue
                return _union(self._source(s, here) for s in sources)
            param = self._param(here, name)
            if param is not False:
                return param
            here = here.parent
        return self._module_name(scope.info, name)

    def _locals_of(self, node: ast.AST) -> Dict[str, List[Tuple[str, ast.AST]]]:
        key = id(node)
        if key not in self._locals:
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            self._locals[key] = _binders(body)
        return self._locals[key]

    def _param(self, scope: _Scope, name: str):
        """The type of parameter *name* of *scope*'s function, or False."""
        node = scope.node
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        for index, arg in enumerate(params):
            if arg.arg != name:
                continue
            if isinstance(node, ast.Lambda):
                return None
            decorators = _decorators(node)
            if index == 0 and scope.cls is not None and "staticmethod" not in decorators:
                return frozenset([("c" if "classmethod" in decorators else "i",
                                   scope.cls)])
            if arg.annotation is None:
                return None
            return self.annotation(arg.annotation, scope.info)
        for star in (args.vararg, args.kwarg):
            if star is not None and star.arg == name:
                return _FOREIGN
        return False

    def _source(self, source: Tuple[str, ast.AST], scope: _Scope) -> Types:
        kind, node = source
        if kind == "value":
            return self.of(node, scope)
        if kind == "ann":
            return self.annotation(node, scope.info)
        return None

    def _module_name(self, info: ModuleInfo, name: str) -> Types:
        if name in info.defs:
            return self._target(info.defs[name])
        key = ("module", id(info), name)
        if key in self._busy:
            return None
        self._busy.add(key)
        try:
            sources = self._module_binders(info).get(name)
            if sources and not any(kind == "import" for kind, _ in sources):
                return _union(self._source(s, _Scope(info)) for s in sources)
        finally:
            self._busy.discard(key)
        if name in info.bindings:
            return self._binding(info.bindings[name])
        if sources is None and name in _FOREIGN_CALLS | {"None", "True", "False"}:
            return _FOREIGN
        return None

    def _module_binders(self, info: ModuleInfo):
        key = id(info.tree)
        if key not in self._locals:
            self._locals[key] = _binders(info.tree.body)
        return self._locals[key]

    def _binding(self, binding: Binding) -> Types:
        """The type of what an import binds, through re-exports."""
        target = self.reach._resolve(binding)
        if isinstance(target, Unit):
            return self._target(target)
        if isinstance(target, _Variable):
            return self._module_name(self.reach._info(target.module), target.name)
        if target is not None:
            return _FOREIGN  # a module: its names resolve by lookup
        module = binding if isinstance(binding, str) else binding[0]
        # Not ours (a stdlib module, class, function or constant), unless
        # it is an import cycle under repro.
        return None if module.split(".")[0] == "repro" else _FOREIGN

    def attribute(self, types: Types, name: str) -> Types:
        """The type of attribute *name* of a value of *types*."""
        if types is None or FOREIGN in types:
            return None
        found: List[Types] = []
        for kind, cls in types:
            methods = self.definers(cls, name)
            if methods:
                for method in methods:
                    if "property" in _decorators(method.node):
                        found.append(self._returns(method))
                    else:
                        found.append(_FOREIGN)
            elif kind == "i":
                found.append(self.field(cls, name))
            else:
                found.append(self._class_level(cls, name))
        return _union(found)

    def _class_level(self, cls: Unit, name: str) -> Types:
        if self._is_enum(cls):
            return frozenset([("i", cls)])  # a member
        sources = []
        for owner in self.related(cls):
            for node in owner.node.body:
                if isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == name for t in node.targets):
                    sources.append(self.of(node.value, _Scope(
                        self.reach._info(owner.module), owner.node, owner)))
        return _union(sources) if sources else None

    def field(self, cls: Unit, name: str) -> Types:
        """Every value stored under *name* on *cls*'s hierarchy."""
        key = (cls, name)
        if key in self._fields:
            return self._fields[key]
        if key in self._busy:
            return None
        self._busy.add(key)
        try:
            found = self._field(cls, name)
        finally:
            self._busy.discard(key)
        self._fields[key] = found
        return found

    def _field(self, cls: Unit, name: str) -> Types:
        related = self.related(cls)
        sources: List[Types] = []
        for owner in related:
            info = self.reach._info(owner.module)
            for node in owner.node.body:
                if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name:
                    sources.append(self.annotation(node.annotation, info))
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == name for t in node.targets):
                    sources.append(self.of(node.value, _Scope(info, owner.node, owner)))
        for receiver, source, scope in self.stores.get(name, []):
            holder = self.of(receiver, scope)
            if holder is None:
                return None
            if source[0] != "aug" and any(
                    c in related for _kind, c in holder if c is not None):
                sources.append(self._source(source, scope))
        return _union(sources) if sources else None

    def _returns(self, method: Unit) -> Types:
        returns = method.node.returns
        if returns is None:
            return None
        return self.annotation(returns, self.reach._info(method.module))

    def _call(self, call: ast.Call, scope: _Scope) -> Types:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "super":
            cls = _method_class(scope)
            if cls is None:
                return None
            return frozenset(("i", base) for base in self.bases.get(cls, [])) or None
        target = self.reach._lookup(scope.info, scope.info.body, func)
        if isinstance(target, Unit):
            if target.is_class:
                return frozenset([("i", target)])
            return self._returns(target)
        if isinstance(func, ast.Name):
            types = self._name(func.id, scope)
            if types is None:
                return None
            if types == _FOREIGN:
                if func.id in _FOREIGN_CALLS and self._name_is_builtin(func.id, scope):
                    return _FOREIGN
                return None
            return _union(frozenset([("i", c)]) if k == "c" else None
                          for k, c in types)
        if isinstance(func, ast.Attribute):
            types = self.of(func.value, scope)
            if types is None or FOREIGN in types:
                return None
            found: List[Types] = []
            for _kind, cls in types:
                methods = self.definers(cls, func.attr)
                if not methods:
                    return None
                found += [None if "property" in _decorators(m.node) else self._returns(m)
                          for m in methods]
            return _union(found)
        return None

    def _name_is_builtin(self, name: str, scope: _Scope) -> bool:
        info = scope.info
        return (name not in info.defs and name not in info.bindings
                and name not in self._module_binders(info))

    def annotation(self, node: ast.AST, info: ModuleInfo) -> Types:
        """The type an annotation names, read in *info*'s namespace."""
        if isinstance(node, ast.Constant):
            if node.value is None:
                return _FOREIGN
            if isinstance(node.value, str):
                try:
                    node = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return None
                return self.annotation(node, info)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union([self.annotation(node.left, info),
                           self.annotation(node.right, info)])
        if isinstance(node, ast.Subscript):
            head = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            inner = node.slice
            args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            if head == "Optional":
                return _union([self.annotation(inner, info), _FOREIGN])
            if head == "Union":
                return _union(self.annotation(a, info) for a in args)
            if head in ("ClassVar", "Final"):
                return self.annotation(inner, info)
            if head == "Type":
                types = self.annotation(inner, info)
                return None if types is None else frozenset(
                    ("c", c) if k == "i" else (k, c) for k, c in types)
            node = node.value
        if isinstance(node, (ast.Name, ast.Attribute)):
            target = self.reach._lookup(info, info.body, node)
            if isinstance(target, Unit) and target.is_class:
                return frozenset([("i", target)])
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in _FOREIGN_ANNOTATIONS and not isinstance(target, Unit):
                return _FOREIGN
        return None


def _union(parts: Iterable[Types]) -> Types:
    found: Set[Kind] = set()
    for part in parts:
        if part is None:
            return None
        found |= part
    return frozenset(found)


def _method_class(scope: _Scope) -> Optional[Unit]:
    """The class whose method *scope* is, or is nested in."""
    here: Optional[_Scope] = scope
    while here is not None:
        if isinstance(here.node, (*_FUNCTIONS,)) and here.cls is not None:
            return here.cls
        here = here.parent
    return None


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
        #: Scripts import each other by file name (``import workloads``).
        self.script_names = {s.path.stem: s for s in self.scripts}
        self.live_modules = set()
        self._live: Dict[int, Unit] = {}  # by id(): the order they went live
        #: Attribute names used where the receiver's class is unknown.
        self._attrs: Set[str] = set()
        #: Calls ``obj.name(…)`` of unknown receiver: name -> shapes.
        self._calls: Dict[str, Set[Shape]] = {}
        #: ``(class, name)`` whose method runs, from a typed receiver.
        self._demanded: Set[Tuple[Unit, str]] = set()
        self._asked: Set[Tuple[Unit, str]] = set()
        self._work: List[Tuple[ModuleInfo, Unit]] = []
        self.types = _Types(self)
        self._solve()

    def _info(self, name: str) -> Optional[ModuleInfo]:
        if name in self.modules:
            return self.modules[name]
        if name in self.script_names:
            return self.script_names[name]
        return next((s for s in self.scripts if s.name == name), None)

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
                for hook in ("__getattr__", "__dir__"):
                    if hook in info.defs:
                        self._mark(info, info.defs[hook])

    def _mark_target(self, target: Union[None, str, Unit, _Variable]) -> None:
        if isinstance(target, _Variable):
            self._mark_module(target.module)
        elif isinstance(target, Unit):
            if target.module in self.modules:  # a script's defs all run
                self._mark_module(target.module)
                self._mark(self.modules[target.module], target)
        elif target is not None:
            self._mark_module(target)

    def _demand(self, cls: Unit, name: str) -> None:
        """A method ``name`` runs on some instance of *cls*."""
        if (cls, name) not in self._asked:
            self._asked.add((cls, name))
            for method in self.types.definers(cls, name):
                self._demanded.add((method.owner, name))

    # -- resolution ---------------------------------------------------------
    def _resolve(self, binding: Binding,
                 seen: Tuple = ()) -> Union[None, str, Unit, _Variable]:
        """The module or def a binding names, through re-exports."""
        if isinstance(binding, str):
            known = binding in self.modules or binding in self.script_names
            return binding if known else None
        module, name = binding
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        info = self.modules.get(module) or self.script_names.get(module)
        if info is None or binding in seen:
            return None
        if name in info.defs:
            return info.defs[name]
        if name in info.bindings:
            return self._resolve(info.bindings[name], seen + (binding,))
        return _Variable(module, name)  # its module runs

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
    def walk(self, info: ModuleInfo, unit: Unit):
        """``(node, parent, scope)`` over *unit*'s own code."""
        return _walk(unit.nodes, _unit_scope(info, unit), self.types.by_node)

    def _scan(self, info: ModuleInfo, unit: Unit) -> None:
        for node, parent, scope in self.walk(info, unit):
            name = _getattr_name(node)
            if name is not None:
                self._attrs.add(name)
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    target = self._lookup(info, unit, node)
                    for one in target if isinstance(target, list) else [target]:
                        self._mark_target(one)
            elif isinstance(node, ast.Attribute):
                target = self._lookup(info, unit, node)
                if target is not None:
                    self._mark_target(target)
                    continue
                types = self.types.of(node.value, scope)
                if types is not None:
                    for _kind, cls in types:
                        if cls is not None:
                            self._demand(cls, node.attr)
                elif isinstance(parent, ast.Call) and parent.func is node:
                    self._calls.setdefault(node.attr, set()).add(_shape(parent))
                else:
                    self._attrs.add(node.attr)

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
            for method in methods:
                if (dunder or name in self._attrs or (cls, name) in self._demanded
                        or any(_accepts(method, shape)
                               for shape in self._calls.get(name, ()))):
                    self._mark(info, method)

    # -- the answer ---------------------------------------------------------
    def live_units(self) -> List[Unit]:
        """Every live unit under ``src/repro`` (not the script roots)."""
        return [u for u in self._live.values() if u.module in self.modules]

    def live_classes(self) -> List[Unit]:
        return [u for u in self.live_units() if u.is_class]

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

    @cached_property
    def census(self) -> "_Census":
        """Which parameters live calls pass, and with what."""
        return _Census(self)

    def unset_options(self) -> List[str]:
        """``module.def(param)`` of every defaulted parameter of a live
        def outside ``repro.eval`` that no live call passes, sorted."""
        return self.census.unset()

    def write_only(self) -> List[str]:
        """``module.Class.attr`` of every attribute or dataclass field
        live code stores and no live code reads, sorted."""
        return _StateCensus(self).write_only()

    def one_value(self) -> List[str]:
        """``module.def(param)=value`` (``module.Class(field)=value`` for
        a dataclass field) of every parameter every live call sets to
        one literal, sorted."""
        return self.census.one_value()

    def every_scope(self) -> Iterator[Tuple[ModuleInfo, Unit]]:
        """Every live unit with its module, script roots included."""
        for unit in self._live.values():
            info = self.modules.get(unit.module)
            yield (info or self._info(unit.module)), unit


#: Where the census does not look for options: a registry row's ``run_*``
#: signature is that experiment's declared config, which tests shrink.
CENSUS_SKIPS = ("repro.eval",)

#: Where an expression is handed on as a value rather than used in place:
#: a def found there may be called later with any arguments.
_PASSING = (ast.Call, ast.keyword, ast.Assign, ast.Return, ast.Dict,
            ast.List, ast.Tuple, ast.Set, ast.IfExp)


def _is_call_to(node: Optional[ast.AST], *names: str) -> bool:
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return (getattr(func, "id", None) in names
            or getattr(func, "attr", None) in names)


#: A value a call sets a parameter to: ``(type name, repr)`` of a
#: literal, or None for anything else.
Value = Optional[Tuple[str, str]]


class _Census:
    """Which parameters live calls pass, and with what.

    A call sets a parameter by keyword or by position. ``partial(f, …)``
    is a call of ``f``, and calls of the name it is bound to go on from
    its arguments. Calling a class calls the ``__init__`` it has or
    inherits (a dataclass's from its fields), and
    ``super().__init__(…)`` calls the base's. A def handed on as a value
    (a handler, a callback), or a call with ``*args`` or ``**kwargs``,
    sets every parameter to any value. A method call resolves through
    the receiver's class when the pass can tell it; a callee that does
    not resolve to a def is matched by name among the defs its
    arguments fit, so the census errs towards "set" and "varies".
    """

    def __init__(self, reach: Reachability):
        self.reach = reach
        self.types = reach.types
        self.by_name: Dict[str, List[Unit]] = {}
        #: Each dataclass without ``__init__``: one synthesised from fields.
        self.synthetic: Dict[Unit, Unit] = {}
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
        self.passed: Dict[Unit, Set[str]] = {}
        self.values: Dict[Unit, Dict[str, Set[Value]]] = {}
        #: Names a ``partial`` is bound to: ``(def, arguments it binds)``.
        self.aliases: Dict[str, List[Tuple[Unit, int]]] = {}
        for info, unit in reach.every_scope():
            for node, _parent, scope in reach.walk(info, unit):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    self._alias(info, unit, node, scope)
        for info, unit in reach.every_scope():
            for node, parent, scope in reach.walk(info, unit):
                if isinstance(node, ast.Call):
                    self._call(info, unit, node, scope)
                elif (isinstance(parent, _PASSING)
                      and isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load)
                      and getattr(parent, "func", None) is not node
                      and not _is_call_to(parent, "isinstance", "issubclass",
                                          "partial")):
                    self._value(info, unit, node, scope)

    def _index(self, unit: Unit) -> None:
        self.by_name.setdefault(unit.node.name, []).append(unit)

    # -- what a name calls --------------------------------------------------
    def _init_of(self, info: ModuleInfo, cls: Unit,
                 seen: Tuple = ()) -> Optional[Unit]:
        """The ``__init__`` *cls* has or inherits, if it is in ``src``."""
        if "__init__" in cls.methods:
            return cls.methods["__init__"][0]
        if _is_dataclass(cls):
            return self._synthesised(cls)
        for base in self.types.bases.get(cls, []):
            if base not in seen and base.module in self.reach.modules:
                init = self._init_of(self.reach.modules[base.module], base,
                                     seen + (cls,))
                if init is not None:
                    return init
        return None

    def _init_fields(self, cls: Unit) -> Dict[str, Optional[ast.AST]]:
        """A dataclass's ``__init__`` fields in order (its bases' first; an
        override keeps its place), each with its default expression."""
        fields: Dict[str, Optional[ast.AST]] = {}
        for base in reversed(self.types.bases.get(cls, [])):
            if _is_dataclass(base):
                fields.update(self._init_fields(base))
        for node in _fields(cls):
            if not _no_init(node):
                fields[node.target.id] = _field_default(node)
        return fields

    def _synthesised(self, cls: Unit) -> Unit:
        """A dataclass's ``__init__``, synthesised from its fields."""
        if cls not in self.synthetic:
            fields = self._init_fields(cls)
            defaults = list(fields.values())
            first = next((i for i, d in enumerate(defaults) if d is not None),
                         len(defaults))
            signature = ast.arguments(
                posonlyargs=[], args=[ast.arg(name) for name in fields],
                vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                defaults=defaults[first:])
            node = ast.FunctionDef(name=cls.node.name, args=signature,
                                   body=[], decorator_list=[], returns=None)
            self.synthetic[cls] = Unit(cls.module, cls.qualname, [], node=node)
        return self.synthetic[cls]

    def _resolved(self, target) -> List[Unit]:
        if isinstance(target, list):
            return target
        if isinstance(target, Unit):
            if not target.is_class:
                return [target]
            if target.module not in self.reach.modules:
                return []
            init = self._init_of(self.reach.modules[target.module], target)
            return [init] if init is not None else []
        return []

    def _callees(self, info: ModuleInfo, unit: Unit, func: ast.AST,
                 scope: _Scope, shape: Optional[Shape] = None
                 ) -> List[Tuple[Unit, int]]:
        """The defs a call of *func* may run, each with the number of
        positional arguments bound before the call's own."""
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            if _is_call_to(func.value, "super"):
                cls = _method_class(scope)
                bases = [] if cls is None else self.types.bases.get(cls, [])
                return [(init, 0) for b in bases for init in self._resolved(b)]
            base = self.reach._lookup(info, info.body, func.value)
            return [(init, 1) for init in self._resolved(base)]
        if isinstance(func, ast.Name) and func.id == "cls":
            cls = _method_class(scope)
            return [(init, 0) for init in self._resolved(cls)]
        if not isinstance(func, (ast.Name, ast.Attribute)):
            return []
        target = self.reach._lookup(info, unit, func)
        found = self._resolved(target)
        name = func.id if isinstance(func, ast.Name) else func.attr
        if not found and target is None and isinstance(func, ast.Attribute):
            types = self.types.of(func.value, scope)
            if types is not None:
                found = [m for _kind, cls in types if cls is not None
                         for m in self.types.definers(cls, name)]
                return [(d, 0) for d in found] + self.aliases.get(name, [])
        if not found and target is None:
            # A bare name calls a function or a class (a method it could
            # only reach as a value handed on, which sets everything).
            found = [d for d in self.by_name.get(name, [])
                     if (shape is None or _accepts(d, shape))
                     and (isinstance(func, ast.Attribute) or d.owner is None)]
        return [(d, 0) for d in found] + self.aliases.get(name, [])

    def _alias(self, info: ModuleInfo, unit: Unit, assign: ast.Assign,
               scope: _Scope) -> None:
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
                    self._callees(info, unit, value.args[0], scope))

    # -- what a call passes -------------------------------------------------
    def _call(self, info: ModuleInfo, unit: Unit, call: ast.Call,
              scope: _Scope) -> None:
        func, args = call.func, call.args
        partial = _is_call_to(call, "partial") and args
        if partial:
            func, args = args[0], args[1:]
        spread = (any(isinstance(a, ast.Starred) for a in args)
                  or any(k.arg is None for k in call.keywords))
        shape = None if partial else _shape(call)
        for callee, bound in self._callees(info, unit, func, scope, shape):
            if spread or partial or bound:
                # A partial's later calls fill the rest: any value.
                names = self.passed.setdefault(callee, set())
                names.update(_positional(callee)[:bound + len(args)])
                names.update(k.arg for k in call.keywords if k.arg)
                if spread:
                    self._set_all(callee)
                else:
                    self._vary(callee)
                continue
            self.passed.setdefault(callee, set()).update(
                _positional(callee)[:len(args)])
            self.passed[callee].update(k.arg for k in call.keywords)
            self._record(callee, info, args, call.keywords)

    def _record(self, callee: Unit, info: ModuleInfo, args: List[ast.AST],
                keywords: List[ast.keyword]) -> None:
        """The values one call sets *callee*'s parameters to."""
        seen = self.values.setdefault(callee, {})
        given: Dict[str, Value] = {}
        for name, arg in zip(_positional(callee), args):
            given[name] = _literal(self.reach, info, arg)
        for keyword in keywords:
            given[keyword.arg] = _literal(self.reach, info, keyword.value)
        defaults = _defaults(callee)
        home = self.reach._info(callee.module)
        for name in _parameters(callee):
            if name in given:
                value = given[name]
            elif name in defaults:
                value = _literal(self.reach, home, defaults[name])
            else:
                value = None
            seen.setdefault(name, set()).add(value)

    def _vary(self, callee: Unit) -> None:
        seen = self.values.setdefault(callee, {})
        for name in _parameters(callee):
            seen.setdefault(name, set()).add(None)

    def _value(self, info: ModuleInfo, unit: Unit, node: ast.AST,
               scope: _Scope) -> None:
        target = self.reach._lookup(info, unit, node)
        found = self._resolved(target)
        if not found and target is None and isinstance(node, ast.Attribute):
            types = self.types.of(node.value, scope)
            if types is not None:
                found = [m for _kind, cls in types if cls is not None
                         for m in self.types.definers(cls, node.attr)]
            else:
                found = self.by_name.get(node.attr, [])
        for callee in found:
            self._set_all(callee)

    def _set_all(self, callee: Unit) -> None:
        self.passed.setdefault(callee, set()).update(_defaulted(callee))
        self._vary(callee)

    # -- the answers --------------------------------------------------------
    def _censused(self) -> Iterator[Tuple[Unit, bool]]:
        """Every live def outside ``CENSUS_SKIPS``, and whether it is a
        dataclass's synthesised ``__init__``."""
        for unit in self.reach.live_units():
            if unit.module.startswith(CENSUS_SKIPS):
                continue
            if unit.is_class:
                if unit in self.synthetic:
                    yield self.synthetic[unit], True
            elif unit.node is not None:
                yield unit, False

    def unset(self) -> List[str]:
        found = []
        for unit, synthetic in self._censused():
            if not synthetic:  # a field nobody passes is in one_value's list
                passed = self.passed.get(unit, set())
                found += [f"{unit.dotted}({name})" for name in _defaulted(unit)
                          if name not in passed]
        return sorted(found)

    def one_value(self) -> List[str]:
        classes = {init: cls for cls, init in self.synthetic.items()}
        found = []
        for unit, synthetic in self._censused():
            passed = self.passed.get(unit, set())
            unset = set() if synthetic else set(_defaulted(unit)) - passed
            for name, values in self.values.get(unit, {}).items():
                if name in unset or len(values) != 1 or None in values:
                    continue
                if synthetic and self._mutated(classes[unit], name):
                    continue  # state that starts at one value, not a knob
                (_kind, text), = values
                found.append(f"{unit.dotted}({name})={text}")
        return sorted(found)


    def _mutated(self, cls: Unit, name: str) -> bool:
        """Whether live code may store field *name* of a *cls* after
        construction (through an object of unknown type counts)."""
        related = self.types.related(cls)
        for receiver, _source, scope in self.types.stores.get(name, []):
            holder = self.types.of(receiver, scope)
            if holder is None or any(c in related for _kind, c in holder):
                return True
        return False


def _no_init(node: ast.AnnAssign) -> bool:
    value = node.value
    return (_is_call_to(value, "field")
            and any(k.arg == "init" and getattr(k.value, "value", True) is False
                    for k in value.keywords))


def _field_default(node: ast.AnnAssign) -> Optional[ast.AST]:
    """A field's default as an expression (a factory is a call)."""
    value = node.value
    if value is None:
        return None
    if _is_call_to(value, "field"):
        for keyword in value.keywords:
            if keyword.arg == "default":
                return keyword.value
            if keyword.arg == "default_factory":
                return ast.Call(func=keyword.value, args=[], keywords=[])
        return None
    return value


def _literal(reach: Reachability, info: Optional[ModuleInfo], node: ast.AST,
             depth: int = 0) -> Value:
    """``(type, repr)`` of a literal or a module constant, else None."""
    value = _evaluate(reach, info, node, depth)
    if value is _UNEVALUATED:
        return None
    return (type(value).__name__, repr(value))


_UNEVALUATED = object()
_OPERATORS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
              ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
              ast.FloorDiv: lambda a, b: a // b, ast.Pow: lambda a, b: a ** b}


def _evaluate(reach: Reachability, info: Optional[ModuleInfo], node: ast.AST,
              depth: int):
    if info is None or depth > 8:
        return _UNEVALUATED
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _evaluate(reach, info, node.operand, depth + 1)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value if isinstance(node.op, ast.USub) else value
        return _UNEVALUATED
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        left = _evaluate(reach, info, node.left, depth + 1)
        right = _evaluate(reach, info, node.right, depth + 1)
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (left, right))
        if not numbers:
            return _UNEVALUATED
        try:
            return _OPERATORS[type(node.op)](left, right)
        except (ArithmeticError, ValueError):
            return _UNEVALUATED
    if isinstance(node, ast.Tuple):
        items = [_evaluate(reach, info, e, depth + 1) for e in node.elts]
        return _UNEVALUATED if _UNEVALUATED in items else tuple(items)
    if isinstance(node, ast.Name):
        return _constant(reach, info, node.id, depth)
    if isinstance(node, ast.Attribute):
        base = reach._lookup(info, info.body, node.value)
        if isinstance(base, str) and base in reach.modules:
            return _constant(reach, reach.modules[base], node.attr, depth)
    return _UNEVALUATED


def _constant(reach: Reachability, info: ModuleInfo, name: str, depth: int):
    """A module-level name bound once, to something that evaluates."""
    assigned = [node for node in info.tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                and any(getattr(t, "id", None) == name for t in
                        (node.targets if isinstance(node, ast.Assign)
                         else [node.target]))]
    if len(assigned) == 1 and assigned[0].value is not None:
        return _evaluate(reach, info, assigned[0].value, depth + 1)
    if not assigned and name in info.bindings:
        binding = info.bindings[name]
        if not isinstance(binding, str) and binding[0] in reach.modules:
            target = reach.modules[binding[0]]
            if name in target.defs:
                return _UNEVALUATED
            return _constant(reach, target, binding[1], depth + 1)
    return _UNEVALUATED


class _StateCensus:
    """Which attributes live code stores and which it loads.

    A store or load through an object whose class the pass can tell
    (:class:`_Types`) is counted against that class, its bases and its
    subclasses; a load through an object of unknown type, and a
    ``getattr`` string, count as reads of that name on every class. A
    store through an unknown object is not counted: the pass cannot
    say whose attribute it is. ``asdict``/``astuple``/``fields``/
    ``vars``/``replace``, and a typed ``repr`` or ``!r``, read every
    field of the object's class; the first five on an object of unknown
    type read everything, and the census then reports nothing.
    """

    _WHOLE_READS = ("asdict", "astuple", "fields", "vars")

    def __init__(self, reach: Reachability):
        self.reach = reach
        self.types = reach.types
        self.stored: Dict[Tuple[Unit, str], None] = {}
        self.read: Set[Tuple[Unit, str]] = set()
        self.read_names: Set[str] = set()
        self.read_whole: Set[Unit] = set()
        self.everything_read = False
        for info, unit in reach.every_scope():
            for node, parent, scope in reach.walk(info, unit):
                self._visit(node, parent, scope)
        for cls in reach.live_classes():
            if _is_dataclass(cls):
                for node in _fields(cls):
                    self.stored.setdefault((cls, node.target.id), None)

    def _classes(self, expr: ast.AST, scope: _Scope) -> Optional[List[Unit]]:
        types = self.types.of(expr, scope)
        if types is None:
            return None
        return [cls for _kind, cls in types if cls is not None]

    def _visit(self, node: ast.AST, parent: Optional[ast.AST],
               scope: _Scope) -> None:
        name = _getattr_name(node)
        if name is not None:
            self.read_names.add(name)
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called in self._WHOLE_READS or (
                    called in ("replace", "repr") and isinstance(func, ast.Name)):
                classes = self._classes(node.args[0], scope)
                if classes is not None:
                    self.read_whole.update(classes)
                elif called != "repr":
                    self.everything_read = True
        elif isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
            self.read_whole.update(self._classes(node.value, scope) or [])
        if not isinstance(node, ast.Attribute):
            return
        attr = node.attr
        if attr.startswith("__") and attr.endswith("__"):
            return
        if isinstance(node.ctx, ast.Load):
            classes = self._classes(node.value, scope)
            if classes is None:
                self.read_names.add(attr)
            else:
                for cls in classes:
                    self.read.add((cls, attr))
        elif isinstance(node.ctx, ast.Store):
            classes = self._classes(node.value, scope)
            for cls in classes or []:
                if cls.module in self.reach.modules:
                    self.stored.setdefault((cls, attr), None)

    def write_only(self) -> List[str]:
        if self.everything_read:
            return []
        readers: Dict[str, Set[Unit]] = {}
        for cls, attr in self.read:
            readers.setdefault(attr, set()).update(self.types.related(cls))
        whole = set()
        for cls in self.read_whole:
            whole |= self.types.related(cls)
        found = []
        for cls, attr in self.stored:
            if attr in self.read_names or cls in readers.get(attr, ()):
                continue
            if cls in whole and _is_dataclass(cls) and any(
                    f.target.id == attr for f in _fields(cls)):
                continue
            if any(attr in c.methods for c in self.types.related(cls)):
                continue  # a property's setter
            found.append(f"{cls.dotted}.{attr}")
        return sorted(set(found))


def _is_method(unit: Unit) -> bool:
    static = "staticmethod" in _decorators(unit.node)
    return unit.owner is not None and not static


def _positional(unit: Unit) -> List[str]:
    """The parameters a call's positional arguments fill, in order."""
    args = unit.node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    return names[1:] if _is_method(unit) else names


def _parameters(unit: Unit) -> List[str]:
    """Every named parameter a call sets (not ``self``, ``*a``, ``**k``)."""
    return _positional(unit) + [a.arg for a in unit.node.args.kwonlyargs]


def _defaults(unit: Unit) -> Dict[str, ast.AST]:
    args = unit.node.args
    positional = args.posonlyargs + args.args
    found = {a.arg: d for a, d in
             zip(positional[len(positional) - len(args.defaults):], args.defaults)}
    found.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is not None)
    return found


def _defaulted(unit: Unit) -> List[str]:
    return list(_defaults(unit))


def unreachable(root: Path = ROOT) -> List[str]:
    """Dotted names of everything under ``src/repro`` no root reaches."""
    return [name for name, _lines in Reachability(root).unreachable()]


def unset_options(root: Path = ROOT) -> List[str]:
    """Every defaulted parameter of a live def no live call passes."""
    return Reachability(root).unset_options()


def write_only(root: Path = ROOT) -> List[str]:
    """Every attribute or field live code stores and never reads."""
    return Reachability(root).write_only()


def one_value(root: Path = ROOT) -> List[str]:
    """Every parameter or field every live call sets to one literal."""
    return Reachability(root).one_value()


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
    state = reach.write_only()
    for name in state:
        print(name)
    print(f"{len(state)} attributes and fields stored and never read")
    single = reach.one_value()
    for name in single:
        print(name)
    print(f"{len(single)} parameters and fields every live call sets to one value")


if __name__ == "__main__":
    main()
