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
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

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
# SL004 -- float arithmetic on time-named variables
# ----------------------------------------------------------------------
_TIME_NAME = re.compile(
    r"(?:^|_)(?:now|time|cycles?|delay|latency|deadline|until)$"
)
#: Names that *mention* time units but hold ratios/bandwidths, not times.
_TIME_NAME_EXCLUDE = re.compile(
    r"(?:^|_)per(?:_|$)|frac|ratio|rate|util|avg|mean|weight"
)

#: Calls that launder their arguments back to int.
_INT_LAUNDER = frozenset(
    {"int", "floor", "ceil", "round", "trunc", "len", "index"}
)

_SL004_DIRS = ("repro/sim/", "repro/bridge/", "repro/links/")


def _is_time_name(name: str) -> bool:
    return bool(_TIME_NAME.search(name)) and not _TIME_NAME_EXCLUDE.search(
        name
    )


def _has_float_arith(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        if terminal_name(node.func) in _INT_LAUNDER:
            return False
        return any(_has_float_arith(a) for a in node.args)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _has_float_arith(node.left) or _has_float_arith(node.right)
    if isinstance(node, ast.UnaryOp):
        return _has_float_arith(node.operand)
    if isinstance(node, ast.IfExp):
        return _has_float_arith(node.body) or _has_float_arith(node.orelse)
    return False


class NoFloatTime(Rule):
    code = "SL004"
    name = "no-float-time"
    description = (
        "simulated time is integer cycles; float arithmetic on "
        "cycle/time-named variables accumulates rounding drift that "
        "breaks bit-identical replays"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(_SL004_DIRS):
            return
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr]
            value: Optional[ast.expr]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.op, ast.Div):
                    targets, value = [node.target], None
                    for target in targets:
                        name = self._target_name(target)
                        if name and _is_time_name(name):
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"true division into time-named "
                                f"`{name}` -- simulated time must stay "
                                f"integral (use //)",
                            )
                    continue
                targets, value = [node.target], node.value
            else:
                continue
            if value is None or not _has_float_arith(value):
                continue
            for target in targets:
                name = self._target_name(target)
                if name and _is_time_name(name):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"float arithmetic assigned to time-named "
                        f"`{name}` -- simulated time must stay integral "
                        f"(wrap in int()/math.ceil())",
                    )

    @staticmethod
    def _target_name(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None


# ----------------------------------------------------------------------
# SL005 -- mutable default args in Component subclasses
# ----------------------------------------------------------------------
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "bytearray", "Counter"}
)


def _is_component_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        terminal = terminal_name(base)
        if terminal is not None and terminal.endswith("Component"):
            return True
    return False


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in _MUTABLE_CALLS
    return False


class NoMutableComponentDefaults(Rule):
    code = "SL005"
    name = "no-mutable-component-defaults"
    description = (
        "a mutable default on a Component method is shared across every "
        "instance of that component -- cross-bank state bleeds between "
        "units and ruins run isolation"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_component_class(node):
                continue
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                defaults = list(item.args.defaults) + [
                    d for d in item.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        yield (
                            default.lineno,
                            default.col_offset,
                            f"mutable default argument on "
                            f"`{node.name}.{item.name}` -- shared across "
                            f"all instances; default to None and "
                            f"allocate inside",
                        )


# ----------------------------------------------------------------------
# SL006 -- schedule lambdas closing over loop variables
# ----------------------------------------------------------------------
def _loop_target_names(target: ast.expr) -> Set[str]:
    return {
        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
    }


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

    def visit_For(self, node: ast.For) -> None:
        self.loop_stack.append(_loop_target_names(node.target))
        for child in node.body:
            self.visit(child)
        self.loop_stack.pop()
        for child in node.orelse:
            self.visit(child)

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
                    for call in _id_calls(kw.value):
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


RULES: Tuple[Rule, ...] = (
    NoWallClock(),
    NoGlobalRandom(),
    NoHashOrderIteration(),
    NoFloatTime(),
    NoMutableComponentDefaults(),
    NoLateBindingCallback(),
    NoBuiltinHash(),
    NoIdOrdering(),
)

RULE_CODES: frozenset = frozenset(rule.code for rule in RULES)
