"""The simlint rule set.

Each rule is a small AST pass over one module.  Rules receive a
:class:`ModuleContext` (parsed tree + path information) and yield
``(line, col, message)`` findings; suppression and allowlisting are
handled by :mod:`repro.analyze`, so rules stay pure detectors.

All path scoping uses the *module path* -- the file's path relative to
the package root, e.g. ``repro/sim/engine.py`` -- which
:func:`repro.analyze.module_path_of` derives from the real filesystem
path (tests pass it directly to place fixture snippets).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..exec.knobs import is_registered

Finding = Tuple[int, int, str]


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one module."""

    tree: ast.Module
    #: Logical path relative to the package root ("repro/sim/engine.py").
    module_path: str
    #: Real filesystem path parts (SL001's benchmarks/scripts exemption).
    fs_parts: Tuple[str, ...] = ()
    _aliases: "Optional[Tuple[Dict[str, str], Dict[str, str]]]" = field(
        default=None, repr=False
    )

    def aliases(self) -> Tuple[Dict[str, str], Dict[str, str]]:
        """``(modules, members)`` import maps, computed once.

        ``modules`` maps local names to module dotted paths
        (``import time as t`` -> ``{"t": "time"}``); ``members`` maps
        names bound by ``from m import n as a`` to ``m.n``.
        """
        if self._aliases is None:
            modules: Dict[str, str] = {}
            members: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            modules[alias.asname] = alias.name
                        else:
                            root = alias.name.split(".")[0]
                            modules[root] = root
                elif isinstance(node, ast.ImportFrom):
                    if node.module and node.level == 0:
                        for alias in node.names:
                            members[alias.asname or alias.name] = (
                                f"{node.module}.{alias.name}"
                            )
            self._aliases = (modules, members)
        return self._aliases


def resolve_dotted(node: ast.AST, ctx: ModuleContext) -> Optional[str]:
    """Best-effort dotted name of an expression, import-aware.

    ``pc()`` after ``from time import perf_counter as pc`` resolves to
    ``time.perf_counter``; unresolvable shapes (subscripts, calls in the
    chain) return ``None``.
    """
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.reverse()
    modules, members = ctx.aliases()
    base = cur.id
    if base in members:
        return ".".join([members[base], *parts])
    if base in modules:
        return ".".join([modules[base], *parts])
    return ".".join([base, *parts])


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class Rule:
    """Base class: subclasses set ``code``/``name`` and implement check()."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code} {self.name}>"


# ----------------------------------------------------------------------
# SL001 -- wall-clock reads
# ----------------------------------------------------------------------
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Directories where wall-clock reads are legitimate (timing harnesses
#: measure the host, not the simulation).  Only files outside the
#: ``repro`` package qualify, so a checkout that happens to live below a
#: directory of that name is still checked.
_WALL_CLOCK_EXEMPT_DIRS = frozenset({"benchmarks", "scripts"})


class NoWallClock(Rule):
    code = "SL001"
    name = "no-wall-clock"
    description = (
        "simulated time is the only clock; wall-clock reads make runs "
        "irreproducible and poison the result cache"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        outside = not ctx.module_path.startswith("repro/")
        if outside and _WALL_CLOCK_EXEMPT_DIRS.intersection(ctx.fs_parts):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, ctx)
            if dotted in _WALL_CLOCK:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read `{dotted}()` -- simulation code must "
                    f"only observe simulated time",
                )


# ----------------------------------------------------------------------
# SL002 -- global / unseeded randomness
# ----------------------------------------------------------------------
class NoGlobalRandom(Rule):
    code = "SL002"
    name = "no-global-random"
    description = (
        "all stochastic choices must flow through DeterministicRNG "
        "(repro/sim/rng.py); the global `random` module and "
        "`numpy.random` carry hidden process-wide state"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "random" or alias.name.startswith(
                        "numpy.random"
                    ):
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"import of `{alias.name}` -- use "
                            f"repro.sim.rng.DeterministicRNG instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue
                mod = node.module or ""
                if mod == "random" or mod.startswith("numpy.random"):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"import from `{mod}` -- use "
                        f"repro.sim.rng.DeterministicRNG instead",
                    )
                elif mod == "numpy" and any(
                    a.name == "random" for a in node.names
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "import of `numpy.random` -- use "
                        "repro.sim.rng.DeterministicRNG instead",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = resolve_dotted(node, ctx)
                if dotted is not None and (
                    dotted == "numpy.random"
                    or dotted.startswith("numpy.random.")
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"use of `{dotted}` -- numpy's global RNG is "
                        f"process-wide mutable state",
                    )


# ----------------------------------------------------------------------
# SL003 -- hash-ordered iteration in scheduling modules
# ----------------------------------------------------------------------
_SCHEDULE_NAMES = frozenset({"schedule", "schedule_at"})

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _module_schedules(ctx: ModuleContext) -> bool:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            if terminal_name(node.func) in _SCHEDULE_NAMES:
                return True
    return False


def _is_set_annotation(annotation: ast.expr) -> bool:
    """True for ``Set[...]``/``set[...]``/``FrozenSet[...]`` annotations."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = terminal_name(target)
    return name in ("Set", "set", "FrozenSet", "frozenset", "AbstractSet")


def _set_bound_names(tree: ast.Module) -> Set[str]:
    """Names bound to set expressions anywhere in the module (coarse).

    Tracks both plain names (``live = set()``) and attribute names
    (``self._parked = set()`` records ``_parked``), plus names whose
    annotation is ``Set[...]``.  Attribute tracking is name-based, not
    object-based, which errs on the side of flagging.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, ()):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
        elif isinstance(node, ast.AnnAssign) and _is_set_annotation(
            node.annotation
        ):
            name = terminal_name(node.target)
            if name is not None:
                names.add(name)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _is_set_annotation(node.annotation):
                names.add(node.arg)
    return names


def _is_set_expr(node: ast.expr, set_names: "Set[str] | Tuple[()]") -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = terminal_name(node.func)
        if isinstance(node.func, ast.Name) and callee in (
            "set",
            "frozenset",
        ):
            return True
        if isinstance(node.func, ast.Attribute) and callee in _SET_METHODS:
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Attribute) and node.attr in set_names:
        return True
    return False


class NoHashOrderIteration(Rule):
    code = "SL003"
    name = "no-hash-order-iteration"
    description = (
        "modules that schedule events must never iterate sets directly: "
        "hash order would feed event order; wrap in sorted() or keep an "
        "explicit list"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _module_schedules(ctx):
            return
        set_names = _set_bound_names(ctx.tree)
        iterables: List[ast.expr] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
        for it in iterables:
            if _is_set_expr(it, set_names):
                yield (
                    it.lineno,
                    it.col_offset,
                    "iteration over a set in a scheduling module -- hash "
                    "order must never influence event order; use sorted() "
                    "or an insertion-ordered structure",
                )


# ----------------------------------------------------------------------
# SL006 -- schedule lambdas closing over loop variables
# ----------------------------------------------------------------------
def _loop_target_names(target: ast.expr) -> Set[str]:
    return {
        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
    }


#: Nodes whose bindings are their own, not the enclosing loop body's.
_NEW_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _loop_body_names(body: List[ast.stmt]) -> Set[str]:
    """Names a loop body rebinds on every iteration (``unit = ...``,
    ``total += ...``, ``with ... as f``)."""
    names: Set[str] = set()
    pending: List[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _NEW_SCOPES):
            pending.extend(ast.iter_child_nodes(node))
    return names


def _lambda_free_names(node: ast.Lambda) -> Set[str]:
    params = {a.arg for a in node.args.args}
    params.update(a.arg for a in node.args.posonlyargs)
    params.update(a.arg for a in node.args.kwonlyargs)
    if node.args.vararg:
        params.add(node.args.vararg.arg)
    if node.args.kwarg:
        params.add(node.args.kwarg.arg)
    loads = {
        n.id
        for n in ast.walk(node.body)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return loads - params


class _LoopLambdaVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.loop_stack: List[Set[str]] = []
        self.findings: List[Finding] = []

    def _visit_loop(self, bound: Set[str], node: "ast.For | ast.While") -> None:
        self.loop_stack.append(bound | _loop_body_names(node.body))
        for child in node.body:
            self.visit(child)
        self.loop_stack.pop()
        for child in node.orelse:
            self.visit(child)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(_loop_target_names(node.target), node)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._visit_loop(set(), node)

    def _visit_comp(self, node: ast.expr, elts: List[ast.expr]) -> None:
        names: Set[str] = set()
        for gen in node.generators:  # type: ignore[attr-defined]
            self.visit(gen.iter)
            names |= _loop_target_names(gen.target)
        self.loop_stack.append(names)
        for e in elts:
            self.visit(e)
        self.loop_stack.pop()

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, [node.elt])

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, [node.elt])

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, [node.elt])

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, [node.key, node.value])

    def visit_Call(self, node: ast.Call) -> None:
        if self.loop_stack and (
            terminal_name(node.func) in _SCHEDULE_NAMES
        ):
            active: Set[str] = set()
            for names in self.loop_stack:
                active |= names
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if not isinstance(arg, ast.Lambda):
                    continue
                captured = _lambda_free_names(arg) & active
                if captured:
                    names_str = ", ".join(sorted(captured))
                    self.findings.append(
                        (
                            arg.lineno,
                            arg.col_offset,
                            f"schedule callback closes over loop "
                            f"variable(s) {names_str} -- lambdas bind "
                            f"late, so every callback would see the "
                            f"final iteration's value; bind by default "
                            f"arg (lambda {names_str}={names_str}: ...)",
                        )
                    )
        self.generic_visit(node)


class NoLateBindingCallback(Rule):
    code = "SL006"
    name = "no-late-binding-callback"
    description = (
        "a lambda scheduled inside a loop that reads the loop variable "
        "runs after the loop finished -- every callback sees the last "
        "value, silently corrupting per-iteration work"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        visitor = _LoopLambdaVisitor()
        visitor.visit(ctx.tree)
        yield from visitor.findings


# ----------------------------------------------------------------------
# SL007 -- builtin hash() feeding order- or key-sensitive code
# ----------------------------------------------------------------------
class NoBuiltinHash(Rule):
    code = "SL007"
    name = "no-builtin-hash"
    description = (
        "builtin hash() on str/bytes is salted per process "
        "(PYTHONHASHSEED); the exec runner fans cells out to worker "
        "processes, so hash()-derived values diverge between runs -- "
        "use hashlib or repro.sim.rng derivation instead"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "builtin hash() is salted per process -- derive keys "
                    "with hashlib (see repro.sim.rng._derive) so workers "
                    "and cache hits agree",
                )


# ----------------------------------------------------------------------
# SL008 -- builtin id() in sort keys or comparisons
# ----------------------------------------------------------------------
_SL008_DIRS = ("repro/sim/", "repro/bridge/")
_SORT_CALLEES = frozenset({"sorted", "min", "max", "sort"})


def _id_calls(node: ast.AST) -> Iterator[ast.Call]:
    for n in ast.walk(node):
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "id"
        ):
            yield n


class NoIdOrdering(Rule):
    code = "SL008"
    name = "no-id-ordering"
    description = (
        "builtin id() is an allocation address: it differs across "
        "processes and runs, so an id()-based sort key or comparison "
        "lets memory layout feed ordering decisions (same family as "
        "SL007 hash()); use explicit sequence numbers or stable fields"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(_SL008_DIRS):
            return
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and terminal_name(node.func) in _SORT_CALLEES
            ):
                for kw in node.keywords:
                    if kw.arg != "key":
                        continue
                    sites: List[ast.expr] = list(_id_calls(kw.value))
                    if isinstance(kw.value, ast.Name) and kw.value.id == "id":
                        sites.append(kw.value)  # key=id
                    for call in sites:
                        where = (call.lineno, call.col_offset)
                        if where in seen:
                            continue
                        seen.add(where)
                        yield (
                            call.lineno,
                            call.col_offset,
                            "id() in a sort key -- object addresses "
                            "differ across processes/runs, so the order "
                            "is irreproducible; sort by a sequence "
                            "number or stable field",
                        )
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops
            ):
                # Only *ordering* comparisons: identity/membership tests
                # (==, is, in) on id() are address-stable within a run.
                for operand in [node.left, *node.comparators]:
                    for call in _id_calls(operand):
                        where = (call.lineno, call.col_offset)
                        if where in seen:
                            continue
                        seen.add(where)
                        yield (
                            call.lineno,
                            call.col_offset,
                            "id() in a comparison -- object addresses "
                            "differ across processes/runs; compare "
                            "sequence numbers or stable fields instead",
                        )


# ----------------------------------------------------------------------
# SL009 / SL010 -- where simulation state lives
# ----------------------------------------------------------------------
#: The packages whose objects live inside a running simulation.  The
#: analysis/plotting/CLI layers hold no simulated state and are out of
#: scope by construction.
STATE_SCOPE_PREFIXES: Tuple[str, ...] = (
    "repro/sim/",
    "repro/bridge/",
    "repro/ndp/",
    "repro/runtime/",
    "repro/balance/",
    "repro/links/",
    "repro/dram/",
    "repro/messages/",
)

#: Call targets that produce mutable state (SL009).
_MUTABLE_FACTORY_CALLS = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.deque", "collections.defaultdict",
        "collections.Counter", "collections.OrderedDict",
        "deque", "defaultdict", "Counter", "OrderedDict",
        "itertools.count", "count",
    }
)

#: RNG constructors that must only appear in sanctioned modules (SL010).
_RNG_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})


def _is_constant(node: ast.AST) -> bool:
    """Literal-constant check: immutable scalars and containers of them."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
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


def _mutable_kind(value: ast.AST, ctx: ModuleContext) -> Optional[str]:
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
        dotted = resolve_dotted(value.func, ctx)
        if dotted in _MUTABLE_FACTORY_CALLS:
            return f"{dotted}() instance"
    return None


def _is_constant_table(name: str, value: ast.AST) -> bool:
    """ALL_CAPS non-empty literal tables are read-only by convention.

    A module-level ``TIMINGS = {...}`` of constants is a lookup table,
    not state: nothing writes it, so no cell can leave it changed.  Only
    literal contents qualify -- a ``count()`` or comprehension is
    stateful/derived and stays flagged regardless of naming -- and only
    a non-empty table: an empty container is useful only if something
    fills it.  Dunder metadata (``__all__`` and friends) is
    interpreter-facing, not simulation state, and is exempt on the same
    read-only grounds.
    """
    if name.startswith("__") and name.endswith("__"):
        return True
    if name != name.upper():
        return False
    if isinstance(value, (ast.List, ast.Set)):
        return bool(value.elts) and _is_constant(value)
    if isinstance(value, ast.Dict):
        return bool(value.keys) and _is_constant(value)
    return False


def _is_dataclass(node: ast.ClassDef, ctx: ModuleContext) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = resolve_dotted(target, ctx)
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _bindings(
    body: List[ast.stmt], in_dataclass: bool
) -> Iterator[Tuple[ast.stmt, str, ast.expr]]:
    """``(statement, name, value)`` for each plain-name binding in a
    module or class body; a dataclass's annotated fields are per
    instance, and ``__slots__`` declares rather than binds."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id != "__slots__":
                    yield stmt, target.id, stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.value is not None
            and not in_dataclass
        ):
            yield stmt, stmt.target.id, stmt.value


class ModuleLevelState(Rule):
    code = "SL009"
    name = "module-level-state"
    description = (
        "module- or class-level mutable state in a simulation package "
        "-- a pool worker keeps it from one cell to the next, so a "
        "cell's result would depend on the cells run before it "
        "(ALL_CAPS non-empty literal constant tables are exempt; "
        "stateful factories like itertools.count() never are)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(STATE_SCOPE_PREFIXES):
            return
        scopes: List[Tuple[str, List[ast.stmt], bool]] = [
            ("module", ctx.tree.body, False)
        ]
        rebinds: List[ast.Global] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                scopes.append(
                    (f"class {node.name}", node.body, _is_dataclass(node, ctx))
                )
            elif isinstance(node, ast.Global):
                rebinds.append(node)
        for where, body, in_dataclass in scopes:
            for stmt, name, value in _bindings(body, in_dataclass):
                kind = _mutable_kind(value, ctx)
                if kind and not _is_constant_table(name, value):
                    yield (
                        stmt.lineno,
                        stmt.col_offset,
                        f"{where}-level mutable state '{name}' ({kind}) "
                        f"-- move it onto a component or allowlist it "
                        f"with a written justification",
                    )
        for node in rebinds:
            for name in node.names:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"'global {name}' rebinds module state from inside "
                    f"a simulation package -- a pool worker carries it "
                    f"into the next cell",
                )


class UnmanagedRNG(Rule):
    code = "SL010"
    name = "unmanaged-rng"
    description = (
        "an RNG is constructed outside the sim/rng.py named-stream "
        "facade -- a run is reproducible from its seed only if every "
        "stream derives from the system root; derive a substream "
        "instead"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(STATE_SCOPE_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, ctx)
            if dotted is not None and (
                dotted in _RNG_CONSTRUCTORS
                or dotted.rsplit(".", 1)[-1] == "DeterministicRNG"
                or dotted.startswith("numpy.random.")
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"RNG constructed via {dotted}() outside the "
                    f"named-stream facade -- use "
                    f"DeterministicRNG.substream() from the system "
                    f"root so the run is reproducible from its seed",
                )


# ----------------------------------------------------------------------
# SL011 / SL012 -- the bounded bridge buffers (Section V-A)
# ----------------------------------------------------------------------
#: The protocol layers, the only modules that create or hold messages.
_PROTOCOL_DIRS = ("repro/messages/", "repro/bridge/", "repro/ndp/")

_BOUNDED_CALLS = frozenset({"enqueue", "push"})


class UnhandledBackpressure(Rule):
    code = "SL011"
    name = "unhandled-backpressure"
    description = (
        "Mailbox.enqueue() / MessageBuffer.push() return False when the "
        "container is full; a call site that discards the return value "
        "silently drops the message on backpressure"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(_PROTOCOL_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _BOUNDED_CALLS
            ):
                continue
            yield (
                node.lineno,
                node.col_offset,
                f".{call.func.attr}() returns False on backpressure "
                f"but the result is discarded -- the message is "
                f"silently dropped when the container is full "
                f"(check the return value, or use force_push to make "
                f"the policy explicit)",
            )


# The static deadlock bound: with the default geometry one gather round
# can burst 64 banks x 8 chunks x 256 B = 128 KiB of DATA through a
# level-1 bridge whose backup store holds 64 KiB.  If any rejection
# branch *waits* for space instead of escaping (raise / spill to an
# unbounded store / return False to the caller), the waiters can form a
# cycle among bridge buffers that exceeds backup_capacity and the
# simulation deadlocks.  So every ``if not x.push(...)`` /
# ``if x.enqueue(...) ... else`` failure branch must provably escape.
_ESCAPE_CALL_ATTRS = frozenset(
    {"append", "appendleft", "extend", "force_push"}
)


def _local_sinks(tree: ast.Module) -> Set[str]:
    """Functions in this module that escape (raise or spill unbounded)."""
    sinks: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                sinks.add(node.name)
                break
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in _ESCAPE_CALL_ATTRS
            ):
                sinks.add(node.name)
                break
    return sinks


def _rejection_calls(
    test: ast.AST,
) -> Tuple[List[ast.Call], List[ast.Call]]:
    """Bounded enqueue/push calls in an ``if`` test.

    Returns ``(negated, positive)``: negated calls (``not x.push(m)``)
    mean the *body* is the failure branch; positive calls mean the
    *orelse* is.
    """
    negated: List[ast.Call] = []
    positive: List[ast.Call] = []

    def visit(node: ast.AST, under_not: bool) -> None:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            visit(node.operand, not under_not)
        elif isinstance(node, ast.BoolOp):
            for value in node.values:
                visit(value, under_not)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _BOUNDED_CALLS
        ):
            (negated if under_not else positive).append(node)

    visit(test, False)
    return negated, positive


def _branch_escapes(
    stmts: List[ast.stmt], local_sinks: Set[str]
) -> bool:
    """Does this failure branch provably escape the full container?"""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and node.value.value is False
            ):
                return True
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ESCAPE_CALL_ATTRS
                ):
                    return True
                callee = terminal_name(node.func)
                if callee is not None and callee in local_sinks:
                    return True
    return False


class BlockingWaitCycle(Rule):
    code = "SL012"
    name = "blocking-wait-cycle"
    description = (
        "a rejection branch of a bounded enqueue/push neither raises "
        "nor spills to an unbounded store -- under the default geometry "
        "one gather round bursts 64 banks x 8 chunks x 256 B = 128 KiB "
        "through a 64 KiB backup store, so blocking-wait rejection "
        "paths can deadlock the bridge buffer cycle"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(_PROTOCOL_DIRS):
            return
        sinks = _local_sinks(ctx.tree)
        # While-loop drains (`while q and buf.push(q[0])`) retry with
        # bounded work per event and are the sanctioned pattern.
        while_lines: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.While):
                for inner in ast.walk(node.test):
                    while_lines.add(getattr(inner, "lineno", -1))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.If):
                continue
            negated, positive = _rejection_calls(node.test)
            for call in negated:
                if call.lineno in while_lines:
                    continue
                if not _branch_escapes(node.body, sinks):
                    yield self._finding(call)
            for call in positive:
                if call.lineno in while_lines:
                    continue
                if not node.orelse or not _branch_escapes(
                    node.orelse, sinks
                ):
                    yield self._finding(call)

    def _finding(self, call: ast.Call) -> Finding:
        attr = call.func.attr  # type: ignore[attr-defined]
        return (
            call.lineno,
            call.col_offset,
            f"rejection path of .{attr}() does not provably escape "
            f"(raise, return False, or spill to an unbounded store); "
            f"one gather burst (64 banks x 8 chunks x 256 B = 128 KiB) "
            f"exceeds the 64 KiB backup bound, so a blocking wait here "
            f"can deadlock the bridge-buffer cycle",
        )


# ----------------------------------------------------------------------
# SL013 / SL014 -- what a pool worker may observe
# ----------------------------------------------------------------------
class DeclaredEnvKnob(Rule):
    code = "SL013"
    name = "declared-env-knob"
    description = (
        "every os.environ/os.getenv read must name a knob declared in "
        "repro.exec.knobs, whose entries each justify why the knob "
        "cannot change results; the result cache hashes no environment "
        "variable, so an undeclared knob that changed results would "
        "poison it"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith("repro/"):
            return
        for node in ast.walk(ctx.tree):
            name_expr = self._env_read(node, ctx)
            if name_expr is None:
                continue
            if not (
                isinstance(name_expr, ast.Constant)
                and isinstance(name_expr.value, str)
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "environment variable name must be a string literal "
                    "so the knob registry can be checked statically",
                )
                continue
            if not is_registered(name_expr.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"read of undeclared environment knob "
                    f"{name_expr.value!r} -- declare it in "
                    f"repro/exec/knobs.py with a justification of why it "
                    f"cannot change results, or make the value a "
                    f"SystemConfig/CellRequest field",
                )

    @staticmethod
    def _env_read(node: ast.AST, ctx: ModuleContext) -> Optional[ast.AST]:
        """The env-name expression of an environment read, if any."""
        if isinstance(node, ast.Call):
            dotted = resolve_dotted(node.func, ctx)
            if dotted in ("os.getenv", "os.environ.get") and node.args:
                return node.args[0]
        elif isinstance(node, ast.Subscript):
            if resolve_dotted(node.value, ctx) == "os.environ":
                return node.slice
        return None


_CONTEXT_READS = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.getcwd",
        "os.getcwdb",
        "os.uname",
        "os.urandom",
        "os.getlogin",
        "pathlib.Path.cwd",
        "multiprocessing.current_process",
        "multiprocessing.get_start_method",
        "multiprocessing.parent_process",
        "threading.get_ident",
        "threading.get_native_id",
        "threading.current_thread",
        "threading.main_thread",
        "socket.gethostname",
        "socket.getfqdn",
        "platform.node",
        "platform.uname",
        "uuid.uuid1",
        "uuid.uuid4",
        "id",
    }
)


class WorkerContextIndependence(Rule):
    code = "SL014"
    name = "worker-context-independence"
    description = (
        "worker-executed modules must not observe process identity "
        "(pid, cwd, start method, thread ids, hostname, object "
        "addresses) -- any such read makes in-process and pooled cells "
        "diverge, breaking the bit-identity contract"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Worker-executed packages: everything a pool worker runs to
        # simulate a cell, the scope of SL009/SL010.
        if not ctx.module_path.startswith(STATE_SCOPE_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, ctx)
            if dotted in _CONTEXT_READS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"process-context read `{dotted}()` in worker-executed "
                    f"module {ctx.module_path} -- in-process and pooled "
                    f"cells would observe different values and diverge",
                )


RULES: Tuple[Rule, ...] = (
    NoWallClock(),
    NoGlobalRandom(),
    NoHashOrderIteration(),
    NoLateBindingCallback(),
    NoBuiltinHash(),
    NoIdOrdering(),
    ModuleLevelState(),
    UnmanagedRNG(),
    UnhandledBackpressure(),
    BlockingWaitCycle(),
    DeclaredEnvKnob(),
    WorkerContextIndependence(),
)

RULE_CODES: frozenset = frozenset(rule.code for rule in RULES)
