"""The simflow protocol rules (FL002-FL004).

Like simlint's rules, each flow rule is a pass over one module: it
receives a :class:`~repro.lint.rules.ModuleContext` and yields
``(line, col, message)`` findings; :mod:`repro.analyze` applies per-line
``# simflow: ignore[FLxxx]`` suppressions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..lint.rules import Finding, ModuleContext, Rule, terminal_name

#: simflow only analyses the protocol layers; the rest of the tree
#: (engine, runtime, benchmarks, ...) neither creates nor handles
#: messages and is out of scope by construction.
FLOW_SCOPE_PREFIXES: Tuple[str, ...] = (
    "repro/messages/",
    "repro/bridge/",
    "repro/ndp/",
)


# ---------------------------------------------------------------------------
# FL002 -- every bounded enqueue/push handles the False (backpressure) path

_BOUNDED_CALLS = frozenset({"enqueue", "push"})


class UnhandledBackpressure(Rule):
    code = "FL002"
    name = "unhandled-backpressure"
    description = (
        "Mailbox.enqueue() / MessageBuffer.push() return False when the "
        "container is full; a call site that discards the return value "
        "silently drops the message on backpressure"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
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


# ---------------------------------------------------------------------------
# FL003 -- rejection paths must escape, not block-wait
#
# The static deadlock bound: with the default geometry one gather round
# can burst 64 banks x 8 chunks x 256 B = 128 KiB of DATA through a
# level-1 bridge whose backup store holds 64 KiB.  If any rejection
# branch *waits* for space instead of escaping (raise / spill to an
# unbounded store / return False to the caller), the waiters can form a
# cycle among bridge buffers that exceeds backup_capacity and the
# simulation deadlocks.  We therefore require every ``if not x.push(...)``
# / ``if x.enqueue(...) ... else`` failure branch to provably escape.

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
    code = "FL003"
    name = "blocking-wait-cycle"
    description = (
        "a rejection branch of a bounded enqueue/push neither raises "
        "nor spills to an unbounded store -- under the default geometry "
        "one gather round bursts 64 banks x 8 chunks x 256 B = 128 KiB "
        "through a 64 KiB backup store, so blocking-wait rejection "
        "paths can deadlock the bridge buffer cycle"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
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


# ---------------------------------------------------------------------------
# FL004 -- balance metadata is mutated only through balance/metadata.py

_BALANCE_OWNERS = frozenset({"islent", "borrowed", "is_lent", "data_borrowed"})
_BALANCE_MODULE = "repro/balance/metadata.py"


class BalanceMetadataBypass(Rule):
    code = "FL004"
    name = "balance-metadata-bypass"
    description = (
        "isLent/dataBorrowed balance metadata must be read and mutated "
        "only through the public API of balance/metadata.py -- touching "
        "its private state from a message handler breaks the "
        "lend/return conservation the tracker audits"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module_path == _BALANCE_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not node.attr.startswith("_"):
                continue
            owner = terminal_name(node.value)
            if owner is None or owner.lower() not in _BALANCE_OWNERS:
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"private balance-metadata member "
                f"{owner}.{node.attr} accessed outside "
                f"balance/metadata.py -- use the public "
                f"set_lent/clear_lent/borrow/return API so the "
                f"lend/return balance stays auditable",
            )


FLOW_RULES: Tuple[Rule, ...] = (
    UnhandledBackpressure(),
    BlockingWaitCycle(),
    BalanceMetadataBypass(),
)

FLOW_RULE_CODES: Tuple[str, ...] = tuple(rule.code for rule in FLOW_RULES)
