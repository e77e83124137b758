"""Per-class mutable-state inventory, built from the AST.

This is the data layer of simstate: one walk over every in-scope module
produces a :class:`StateInventory` describing *where state lives* --
which attributes each class declares in ``__init__`` (or as dataclass
fields / ``__slots__``), which methods write attributes outside the
constructor, which module- and class-level bindings are mutable, and
where RNGs are constructed.

The ST rules (:mod:`repro.state.rules`) are thin filters over this
inventory.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

#: Methods that count as "construction time" for declaration purposes.
INIT_METHODS: FrozenSet[str] = frozenset({"__init__", "__post_init__"})

#: Call targets that produce mutable module-level state (ST003).
MUTABLE_FACTORY_CALLS: FrozenSet[str] = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.deque", "collections.defaultdict",
        "collections.Counter", "collections.OrderedDict",
        "deque", "defaultdict", "Counter", "OrderedDict",
        "itertools.count", "count",
    }
)

#: RNG constructors that must only appear in sanctioned modules (ST004).
RNG_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"random.Random", "random.SystemRandom"}
)
RNG_CLASS_NAME = "DeterministicRNG"


@dataclass(frozen=True)
class AttrWrite:
    """One ``self.X = ...`` site outside construction time."""

    attr: str
    method: str
    line: int
    col: int


@dataclass(frozen=True)
class MutableBinding:
    """A module- or class-level binding of mutable state (ST003)."""

    name: str
    kind: str
    line: int
    col: int
    scope: str  # "" for module level, else the class name


@dataclass
class ClassInventory:
    """Everything simstate knows about one class's mutable state."""

    module_path: str
    name: str
    line: int
    col: int
    bases: Tuple[str, ...] = ()
    is_dataclass: bool = False
    #: attr -> line of its first construction-time declaration.
    declared: Dict[str, int] = field(default_factory=dict)
    #: ``self.X`` writes outside ``__init__``/``__post_init__``.
    outside_writes: List[AttrWrite] = field(default_factory=list)
    #: ``setattr(self, <non-literal>, ...)`` sites.
    dynamic_writes: List[AttrWrite] = field(default_factory=list)


@dataclass
class ModuleInventory:
    """Per-module findings raw material."""

    module_path: str
    classes: Dict[str, ClassInventory] = field(default_factory=dict)
    module_mutable: List[MutableBinding] = field(default_factory=list)
    global_stmts: List[Tuple[str, int, int]] = field(default_factory=list)
    #: RNG constructor call sites: (callee, line, col).
    rng_calls: List[Tuple[str, int, int]] = field(default_factory=list)


class StateInventory:
    """The whole-tree inventory the ST rules filter."""

    def __init__(self, modules: Dict[str, ModuleInventory]) -> None:
        self.modules = modules
        self._by_name: Dict[str, List[ClassInventory]] = {}
        for mod in modules.values():
            for ci in mod.classes.values():
                self._by_name.setdefault(ci.name, []).append(ci)

    def classes_named(self, name: str) -> List[ClassInventory]:
        return self._by_name.get(name, [])

    def declared_attrs(self, ci: ClassInventory) -> FrozenSet[str]:
        """Attrs declared by ``ci`` or any base resolvable in the tree.

        Bases are matched by terminal name; unknown bases (ABCs, stdlib
        classes) contribute nothing, which is accurate for this tree --
        external bases do not assign model attributes.
        """
        out = set(ci.declared)
        seen = {ci.name}
        frontier = list(ci.bases)
        while frontier:
            base = frontier.pop()
            if base in seen:
                continue
            seen.add(base)
            for parent in self.classes_named(base):
                out.update(parent.declared)
                frontier.extend(parent.bases)
        return frozenset(out)


# ---------------------------------------------------------------------------
# AST helpers


def _alias_map(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = a.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports resolve inside the tree
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(aliases.get(node.id, node.id))
        return ".".join(reversed(parts))
    return None


def _terminal(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def _is_constant(node: ast.AST) -> bool:
    """Literal-constant check: immutable scalars and containers of them."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_constant(e) for e in node.elts)
    if isinstance(node, (ast.List, ast.Set)):
        return all(_is_constant(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return all(
            k is not None and _is_constant(k) and _is_constant(v)
            for k, v in zip(node.keys, node.values)
        )
    if isinstance(node, ast.UnaryOp):
        return _is_constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant(node.left) and _is_constant(node.right)
    return False


def _mutable_kind(
    value: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """The mutable-state kind of a bound value, or None if harmless."""
    if isinstance(value, ast.List):
        return "list literal"
    if isinstance(value, ast.Dict):
        return "dict literal"
    if isinstance(value, ast.Set):
        return "set literal"
    if isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return "comprehension"
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func, aliases)
        if dotted in MUTABLE_FACTORY_CALLS:
            return f"{dotted}() instance"
    return None


def _is_constant_table(name: str, value: ast.AST) -> bool:
    """ALL_CAPS literal tables are read-only by convention.

    A module-level ``TIMINGS = {...}`` of constants is a lookup table,
    not state: nothing writes it, so no cell can leave it changed.  Only
    literal contents qualify -- a ``count()`` or comprehension is
    stateful/derived and stays flagged regardless of naming.  Dunder
    metadata (``__all__`` and friends) is interpreter-facing, not
    simulation state, and is exempt on the same read-only grounds.
    """
    if name.startswith("__") and name.endswith("__"):
        return True
    if name != name.upper():
        return False
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return _is_constant(value)
    return False


def _str_tuple(value: ast.AST) -> Tuple[str, ...]:
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return tuple(
            e.value
            for e in value.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        )
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return (value.value,)
    return ()


def _self_attr_targets(
    node: ast.AST, self_name: str
) -> List[Tuple[str, int, int]]:
    """``self.X`` store targets of an assignment statement."""
    out: List[Tuple[str, int, int]] = []

    def visit_target(t: ast.AST) -> None:
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) \
                and t.value.id == self_name:
            out.append((t.attr, t.lineno, t.col_offset))
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                visit_target(e)
        elif isinstance(t, ast.Starred):
            visit_target(t.value)

    if isinstance(node, ast.Assign):
        for t in node.targets:
            visit_target(t)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        visit_target(node.target)
    return out


def _decorator_names(node: ast.AST, aliases: Dict[str, str]) -> List[str]:
    names = []
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = _dotted(target, aliases)
        if dotted:
            names.append(dotted)
    return names


# ---------------------------------------------------------------------------
# Per-class walk


def _scan_class(
    node: ast.ClassDef,
    module_path: str,
    aliases: Dict[str, str],
    module_mutable: List[MutableBinding],
) -> ClassInventory:
    decorators = _decorator_names(node, aliases)
    ci = ClassInventory(
        module_path=module_path,
        name=node.name,
        line=node.lineno,
        col=node.col_offset,
        bases=tuple(
            _terminal(_dotted(b, aliases)) for b in node.bases
        ),
        is_dataclass=any(
            _terminal(d) == "dataclass" for d in decorators
        ),
    )

    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            name = stmt.target.id
            ci.declared.setdefault(name, stmt.lineno)
            if stmt.value is not None and not ci.is_dataclass:
                kind = _mutable_kind(stmt.value, aliases)
                if kind and not _is_constant_table(name, stmt.value):
                    module_mutable.append(
                        MutableBinding(
                            name, kind, stmt.lineno, stmt.col_offset,
                            scope=node.name,
                        )
                    )
        elif isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if not isinstance(t, ast.Name):
                    continue
                name = t.id
                if name == "__slots__":
                    for attr in _str_tuple(stmt.value):
                        ci.declared.setdefault(attr, stmt.lineno)
                    continue
                ci.declared.setdefault(name, stmt.lineno)
                kind = _mutable_kind(stmt.value, aliases)
                if kind and not _is_constant_table(name, stmt.value):
                    module_mutable.append(
                        MutableBinding(
                            name, kind, stmt.lineno, stmt.col_offset,
                            scope=node.name,
                        )
                    )
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            _scan_method(stmt, ci, aliases)
    return ci


def _scan_method(
    method: ast.FunctionDef, ci: ClassInventory, aliases: Dict[str, str]
) -> None:
    decorators = {_terminal(d) for d in _decorator_names(method, aliases)}
    if "staticmethod" in decorators or "classmethod" in decorators:
        return
    args = method.args.posonlyargs + method.args.args
    if not args:
        return
    self_name = args[0].arg
    is_init = method.name in INIT_METHODS

    for node in ast.walk(method):
        for attr, line, col in _self_attr_targets(node, self_name):
            if is_init:
                ci.declared.setdefault(attr, line)
            else:
                ci.outside_writes.append(
                    AttrWrite(attr, method.name, line, col)
                )
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func, aliases)
            if dotted == "setattr" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name) and first.id == self_name:
                    key = node.args[1] if len(node.args) > 1 else None
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        if is_init:
                            ci.declared.setdefault(key.value, node.lineno)
                        else:
                            ci.outside_writes.append(
                                AttrWrite(
                                    key.value, method.name,
                                    node.lineno, node.col_offset,
                                )
                            )
                    else:
                        ci.dynamic_writes.append(
                            AttrWrite(
                                "<dynamic>", method.name,
                                node.lineno, node.col_offset,
                            )
                        )
            elif dotted == "object.__setattr__" and len(node.args) >= 2:
                first, key = node.args[0], node.args[1]
                if isinstance(first, ast.Name) and first.id == self_name \
                        and isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    if is_init:
                        ci.declared.setdefault(key.value, node.lineno)
                    else:
                        ci.outside_writes.append(
                            AttrWrite(
                                key.value, method.name,
                                node.lineno, node.col_offset,
                            )
                        )


# ---------------------------------------------------------------------------
# Per-module walk


def scan_module(module_path: str, tree: ast.Module) -> ModuleInventory:
    """Build the inventory for one parsed module."""
    aliases = _alias_map(tree)
    mod = ModuleInventory(module_path=module_path)

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if not isinstance(t, ast.Name):
                    continue
                kind = _mutable_kind(stmt.value, aliases)
                if kind and not _is_constant_table(t.id, stmt.value):
                    mod.module_mutable.append(
                        MutableBinding(
                            t.id, kind, stmt.lineno, stmt.col_offset,
                            scope="",
                        )
                    )
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            kind = _mutable_kind(stmt.value, aliases)
            if kind and not _is_constant_table(stmt.target.id, stmt.value):
                mod.module_mutable.append(
                    MutableBinding(
                        stmt.target.id, kind, stmt.lineno,
                        stmt.col_offset, scope="",
                    )
                )

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            ci = _scan_class(node, module_path, aliases, mod.module_mutable)
            mod.classes[ci.name] = ci
        elif isinstance(node, ast.Global):
            for name in node.names:
                mod.global_stmts.append(
                    (name, node.lineno, node.col_offset)
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func, aliases)
            if dotted is None:
                continue
            if dotted in RNG_CONSTRUCTORS or \
                    _terminal(dotted) == RNG_CLASS_NAME or \
                    dotted.startswith("numpy.random."):
                mod.rng_calls.append(
                    (dotted, node.lineno, node.col_offset)
                )
    return mod


def build_inventory(
    modules: Sequence[Tuple[str, ast.Module]]
) -> StateInventory:
    """Inventory for ``(module_path, tree)`` pairs, one shared namespace."""
    out: Dict[str, ModuleInventory] = {}
    for module_path, tree in modules:
        out[module_path] = scan_module(module_path, tree)
    return StateInventory(out)


def inventory_as_dict(inv: StateInventory) -> Dict[str, object]:
    """JSON-safe dump of the inventory (CLI ``--inventory``)."""
    out: Dict[str, object] = {}
    for module_path in sorted(inv.modules):
        mod = inv.modules[module_path]
        classes = {}
        for name in sorted(mod.classes):
            ci = mod.classes[name]
            classes[name] = {
                "bases": list(ci.bases),
                "declared": sorted(inv.declared_attrs(ci)),
                "dataclass": ci.is_dataclass,
            }
        if classes:
            out[module_path] = classes
    return out
