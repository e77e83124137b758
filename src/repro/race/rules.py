"""The simrace rule set: static analysis of the exec pool's boundary.

Sweep cells run in :class:`concurrent.futures.ProcessPoolExecutor`
workers and their results are cached on disk.  Serial, pooled and cached
results are bit-identical only while three conventions hold; these rules
make each one a build failure instead:

* **RC002** process-boundary payload safety -- nothing unpicklable may
  statically reach a ``ProcessPoolExecutor`` or a ``Process``,
* **RC003** cache-fingerprint completeness -- every environment read
  must name a knob declared in :mod:`repro.exec.knobs`,
* **RC005** worker-context independence -- worker-executed modules may
  not observe pid/cwd/start-method/host identity.

Rules reuse simlint's :class:`~repro.lint.rules.ModuleContext` and yield
``(line, col, message)`` findings; suppression (``# simrace:
ignore[RC002]``) is applied by :mod:`repro.analyze`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..exec.knobs import is_registered
from ..lint.rules import (
    Finding,
    ModuleContext,
    Rule,
    resolve_dotted,
    terminal_name,
)
from ..state.rules import STATE_SCOPE_PREFIXES

__all__ = [
    "RACE_RULES",
    "RACE_RULE_CODES",
]


# ----------------------------------------------------------------------
# RC002 -- process-boundary payload safety
# ----------------------------------------------------------------------
_POOL_METHODS = frozenset({"submit", "map"})
_PROCESS_KEYWORDS = frozenset({"target", "args"})


class PayloadSafety(Rule):
    code = "RC002"
    name = "boundary-payload-safety"
    description = (
        "objects crossing a process boundary (ProcessPoolExecutor "
        "arguments and submit/map payloads, Process targets) must "
        "be picklable, snapshot-clean data -- lambdas, closures, "
        "generators, and open file handles either fail to pickle or "
        "silently capture per-process state"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._scan_scope(ctx.tree.body, {}, {}, ctx)

    # -- scope walking -------------------------------------------------
    def _scan_scope(
        self,
        body: Sequence[ast.stmt],
        bindings: Dict[str, str],
        pools: Dict[str, bool],
        ctx: ModuleContext,
        in_function: bool = False,
    ) -> Iterator[Finding]:
        """Walk one lexical scope, tracking unsafe name bindings and
        pool objects, then recurse into nested function scopes with the
        enclosing bindings (closures can reference them)."""
        bindings = dict(bindings)
        pools = dict(pools)
        nested: List[ast.AST] = []
        scope_nodes: List[ast.AST] = []
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(stmt)
                continue
            scope_nodes.extend(self._walk_scope(stmt, nested))
        if in_function:
            # A def nested inside a function is a closure candidate;
            # register the name before scanning so forward references
            # inside the same frame are caught too.
            for fn in nested:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bindings[fn.name] = (
                        f"locally-defined function `{fn.name}` (a closure "
                        f"over the enclosing frame)"
                    )
        for node in scope_nodes:
            self._note_bindings(node, bindings, pools, ctx)
            if isinstance(node, ast.Call):
                yield from self._check_call(node, bindings, pools, ctx)
        for fn in nested:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan_scope(
                    fn.body, bindings, pools, ctx, in_function=True
                )
            elif isinstance(fn, ast.Lambda):
                # A call inside a lambda body is still a boundary call.
                wrapper = ast.Expr(value=fn.body)
                ast.copy_location(wrapper, fn)
                yield from self._scan_scope(
                    [wrapper], bindings, pools, ctx, in_function=True
                )

    @classmethod
    def _walk_scope(
        cls, node: ast.AST, nested: List[ast.AST]
    ) -> Iterator[ast.AST]:
        """Pre-order, source-order nodes of this scope only; nested
        callables are collected, not entered (they are separate frames)."""
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(child)
            else:
                yield from cls._walk_scope(child, nested)

    def _note_bindings(
        self,
        node: ast.AST,
        bindings: Dict[str, str],
        pools: Dict[str, bool],
        ctx: ModuleContext,
    ) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                reason = self._value_reason(node.value, ctx)
                if reason is not None:
                    bindings[target.id] = reason
                else:
                    bindings.pop(target.id, None)
                if self._is_pool_ctor(node.value, ctx):
                    pools[target.id] = True
                else:
                    pools.pop(target.id, None)
        elif isinstance(node, ast.withitem):
            if isinstance(node.optional_vars, ast.Name):
                name = node.optional_vars.id
                reason = self._value_reason(node.context_expr, ctx)
                if reason is not None:
                    bindings[name] = reason
                if self._is_pool_ctor(node.context_expr, ctx):
                    pools[name] = True

    def _value_reason(
        self, value: ast.AST, ctx: ModuleContext
    ) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Call):
            dotted = resolve_dotted(value.func, ctx)
            if dotted in ("open", "io.open", "builtins.open"):
                return "an open file handle"
        return None

    def _is_pool_ctor(self, value: ast.AST, ctx: ModuleContext) -> bool:
        return (
            isinstance(value, ast.Call)
            and terminal_name(value.func) == "ProcessPoolExecutor"
        )

    # -- boundary-call checking ----------------------------------------
    def _check_call(
        self,
        call: ast.Call,
        bindings: Dict[str, str],
        pools: Dict[str, bool],
        ctx: ModuleContext,
    ) -> Iterator[Finding]:
        label = self._boundary_label(call, pools)
        if label is None:
            return
        exprs: List[ast.AST] = list(call.args)
        for kw in call.keywords:
            if label != "Process(...)" or kw.arg in _PROCESS_KEYWORDS:
                exprs.append(kw.value)
        for expr in exprs:
            for site, reason in self._unsafe(expr, bindings):
                yield (
                    site.lineno,
                    site.col_offset,
                    f"{reason} crosses the process boundary via {label} "
                    f"-- boundary payloads must be picklable plain data "
                    f"(module-level callables, frozen dataclasses)",
                )

    def _boundary_label(
        self, call: ast.Call, pools: Dict[str, bool]
    ) -> Optional[str]:
        terminal = terminal_name(call.func)
        if terminal == "ProcessPoolExecutor":
            return f"{terminal}(...)"
        if terminal == "Process":
            return "Process(...)"
        if terminal in _POOL_METHODS and isinstance(call.func, ast.Attribute):
            owner = call.func.value
            if isinstance(owner, ast.Name) and pools.get(owner.id):
                return f"{owner.id}.{terminal}(...)"
            if (
                isinstance(owner, ast.Call)
                and terminal_name(owner.func) == "ProcessPoolExecutor"
            ):
                return f"ProcessPoolExecutor(...).{terminal}(...)"
        return None

    def _unsafe(
        self, expr: ast.AST, bindings: Dict[str, str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(expr, ast.Lambda):
            yield expr, "a lambda"
        elif isinstance(expr, ast.GeneratorExp):
            yield expr, "a generator expression"
        elif isinstance(expr, ast.Name) and expr.id in bindings:
            yield expr, bindings[expr.id]
        elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for elt in expr.elts:
                yield from self._unsafe(elt, bindings)
        elif isinstance(expr, ast.ListComp):
            yield from self._unsafe(expr.elt, bindings)
        elif isinstance(expr, ast.Starred):
            yield from self._unsafe(expr.value, bindings)


# ----------------------------------------------------------------------
# RC003 -- cache-fingerprint completeness
# ----------------------------------------------------------------------
class FingerprintCompleteness(Rule):
    code = "RC003"
    name = "fingerprint-completeness"
    description = (
        "every os.environ/os.getenv read that can influence simulation "
        "results must name a knob declared in repro.exec.knobs; "
        "the registry maps result-affecting knobs onto cache-key fields "
        "(enforced by repro.exec.cache at import), so an undeclared knob "
        "is a latent cache-poisoning hazard"
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
                    "so the fingerprint registry can be checked "
                    "statically",
                )
                continue
            if not is_registered(name_expr.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"read of undeclared environment knob "
                    f"{name_expr.value!r} -- declare it in "
                    f"repro/exec/knobs.py as fingerprinted (cache-"
                    f"key field) or execution_only (with justification)",
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


# ----------------------------------------------------------------------
# RC005 -- worker-context independence
# ----------------------------------------------------------------------
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
    code = "RC005"
    name = "worker-context-independence"
    description = (
        "worker-executed modules must not observe process identity "
        "(pid, cwd, start method, thread ids, hostname, object "
        "addresses) -- any such read makes in-process and pooled cells "
        "diverge, breaking the bit-identity contract"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Worker-executed packages: everything a pool worker runs to
        # simulate a cell, which is the scope simstate audits.
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


RACE_RULES: Tuple[Rule, ...] = (
    PayloadSafety(),
    FingerprintCompleteness(),
    WorkerContextIndependence(),
)

RACE_RULE_CODES = frozenset(rule.code for rule in RACE_RULES)
