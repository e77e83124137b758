"""The static send->handle graph over the message protocol.

simflow's rules need to know, for the whole tree at once, *who creates
which message type* and *who can consume it* -- a cross-module property
that per-file linting (simlint) cannot see.  This module extracts both
sides from the AST:

* **producers** -- every ``TaskMessage(...)`` / ``DataMessage(...)`` /
  ``StateMessage(...)`` construction site;
* **handlers** -- every function that plausibly consumes a message
  type, detected either from a ``deliver*``/``handle*`` name with an
  annotated ``Message`` parameter, or an ``isinstance(x, XxxMessage)``
  dispatch in the body.

Reachability is scoped per *design* (C/B/W/O/H/R from
:mod:`repro.runtime.config`): design C never loads ``bridge/level1.py``,
so a handler that only exists there does not count as consumption for C.
The design->module mapping below mirrors ``bridge.fabric.build_fabric``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..lint.rules import terminal_name

#: Message class name -> protocol type tag (matches MessageType values).
MESSAGE_CLASSES: Dict[str, str] = {
    "TaskMessage": "task",
    "DataMessage": "data",
    "StateMessage": "state",
}

#: The six fabric designs from the paper (runtime.config.Design).
DESIGNS: Tuple[str, ...] = ("C", "B", "W", "O", "H", "R")

# Which module-path prefixes each design actually imports at runtime.
# Mirrors bridge.fabric.build_fabric: C = host forwarding only, R = host
# forwarding + rowclone shortcut, B/W/O = the bridge hierarchy, H =
# host-only execution (a separate model that loads no message code, so
# every protocol obligation is vacuous under H).
_BRIDGE_COMMON: Tuple[str, ...] = ("repro/ndp/", "repro/messages/")
_DESIGN_INCLUDE: Dict[str, Tuple[str, ...]] = {
    "C": _BRIDGE_COMMON + ("repro/bridge/host_path.py",),
    "R": _BRIDGE_COMMON
    + ("repro/bridge/host_path.py", "repro/bridge/rowclone.py"),
    "B": _BRIDGE_COMMON + ("repro/bridge/",),
    "W": _BRIDGE_COMMON + ("repro/bridge/",),
    "O": _BRIDGE_COMMON + ("repro/bridge/",),
    "H": (),
}
_DESIGN_EXCLUDE: Dict[str, Tuple[str, ...]] = {
    "B": ("repro/bridge/host_path.py", "repro/bridge/rowclone.py"),
    "W": ("repro/bridge/host_path.py", "repro/bridge/rowclone.py"),
    "O": ("repro/bridge/host_path.py", "repro/bridge/rowclone.py"),
}


def design_active(design: str, module_path: str) -> bool:
    """Is ``module_path`` part of ``design``'s runtime module set?"""
    include = _DESIGN_INCLUDE.get(design, ())
    if not any(module_path.startswith(p) for p in include):
        return False
    exclude = _DESIGN_EXCLUDE.get(design, ())
    return not any(module_path.startswith(p) for p in exclude)


@dataclass(frozen=True)
class ProducerSite:
    """One ``XxxMessage(...)`` construction site."""

    module_path: str
    line: int
    col: int
    mtype: str  # "task" | "data" | "state"
    cls_name: str


@dataclass(frozen=True)
class HandlerSite:
    """One function that consumes at least one message type."""

    module_path: str
    line: int
    name: str
    mtypes: Tuple[str, ...]


@dataclass
class ModuleGraph:
    """Producers and handlers extracted from one module."""

    module_path: str
    tree: ast.Module
    producers: List[ProducerSite] = field(default_factory=list)
    handlers: List[HandlerSite] = field(default_factory=list)


def _annotation_mtype(annotation: Optional[ast.AST]) -> Optional[str]:
    """Message type named by a parameter annotation, if any."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        name: Optional[str] = annotation.value.rsplit(".", 1)[-1]
    else:
        name = terminal_name(annotation)
    if name is None:
        return None
    return MESSAGE_CLASSES.get(name)


def _isinstance_mtypes(func: ast.AST) -> Set[str]:
    """Message types dispatched via ``isinstance(x, XxxMessage)``."""
    out: Set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        classes = node.args[1]
        candidates: List[ast.AST] = (
            list(classes.elts)
            if isinstance(classes, ast.Tuple)
            else [classes]
        )
        for cand in candidates:
            name = terminal_name(cand)
            if name in MESSAGE_CLASSES:
                out.add(MESSAGE_CLASSES[name])
    return out


_HANDLER_NAME_HINTS = ("deliver", "handle")


def _handler_mtypes(func: ast.AST) -> Tuple[str, ...]:
    """Which message types ``func`` consumes, or empty if it is no handler."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    mtypes: Set[str] = set()
    if any(hint in func.name for hint in _HANDLER_NAME_HINTS):
        args = list(func.args.posonlyargs) + list(func.args.args)
        for arg in args:
            mtype = _annotation_mtype(arg.annotation)
            if mtype is not None:
                mtypes.add(mtype)
        mtypes.update(_isinstance_mtypes(func))
    return tuple(sorted(mtypes))


def build_module_graph(module_path: str, tree: ast.Module) -> ModuleGraph:
    """Extract producers and handlers from one parsed module."""
    graph = ModuleGraph(module_path=module_path, tree=tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            if name in MESSAGE_CLASSES:
                graph.producers.append(
                    ProducerSite(
                        module_path=module_path,
                        line=node.lineno,
                        col=node.col_offset,
                        mtype=MESSAGE_CLASSES[name],
                        cls_name=name,
                    )
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mtypes = _handler_mtypes(node)
            if mtypes:
                graph.handlers.append(
                    HandlerSite(
                        module_path=module_path,
                        line=node.lineno,
                        name=node.name,
                        mtypes=mtypes,
                    )
                )
    return graph


class ProtocolGraph:
    """The whole-tree send->handle graph the flow rules consume."""

    def __init__(self, modules: Dict[str, ModuleGraph]) -> None:
        self._modules = modules

    def module_paths(self) -> List[str]:
        return sorted(self._modules)

    def modules(self) -> Iterator[ModuleGraph]:
        for path in self.module_paths():
            yield self._modules[path]

    def get(self, module_path: str) -> Optional[ModuleGraph]:
        return self._modules.get(module_path)

    def producers(self) -> Iterator[ProducerSite]:
        for module in self.modules():
            yield from module.producers

    def producers_by_type(
        self, design: Optional[str] = None
    ) -> Dict[str, List[ProducerSite]]:
        """Producer sites grouped by message type, optionally per design."""
        out: Dict[str, List[ProducerSite]] = {}
        for module in self.modules():
            if design is not None and not design_active(
                design, module.module_path
            ):
                continue
            for site in module.producers:
                out.setdefault(site.mtype, []).append(site)
        return out

    def handled_types(self, design: Optional[str] = None) -> Set[str]:
        """Message types with at least one reachable handler."""
        out: Set[str] = set()
        for module in self.modules():
            if design is not None and not design_active(
                design, module.module_path
            ):
                continue
            for handler in module.handlers:
                out.update(handler.mtypes)
        return out


def build_protocol_graph(
    modules: Iterable[Tuple[str, ast.Module]]
) -> ProtocolGraph:
    """Assemble the graph from ``(module_path, tree)`` pairs."""
    by_path: Dict[str, ModuleGraph] = {}
    for module_path, tree in modules:
        by_path[module_path] = build_module_graph(module_path, tree)
    return ProtocolGraph(by_path)
