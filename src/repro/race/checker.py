"""simrace orchestration: parse, run RC rules, apply suppressions.

Reuses simlint's :class:`~repro.lint.checker.Diagnostic` and suppression
machinery with ``tool="simrace"``::

    pid = os.getpid()   # simrace: ignore[RC005] why...

Unlike simflow/simstate, the RC rules are per-module passes (like
simlint), so the checker is a straight file loop.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..lint.checker import (
    Diagnostic,
    is_suppressed,
    iter_python_files,
    module_path_of,
    suppressed_lines,
)
from ..lint.rules import ModuleContext
from .rules import RACE_RULES

__all__ = ["analyze_paths", "race_file", "race_source"]


def race_source(
    source: str,
    path: Union[str, Path] = "<string>",
    module_path: Optional[str] = None,
) -> List[Diagnostic]:
    """Analyse one module's source text with the RC rules.

    ``module_path`` overrides the package-relative path used for rule
    scoping (tests use this to place fixture snippets in a virtual
    location like ``repro/ndp/unit.py``).
    """
    path = Path(path)
    if module_path is None:
        module_path = module_path_of(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path=str(path),
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="RC000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = ModuleContext(
        tree=tree,
        module_path=module_path,
        fs_parts=tuple(Path(path).parts),
    )
    suppressed = suppressed_lines(source, tool="simrace")
    diagnostics: List[Diagnostic] = []
    for rule in RACE_RULES:
        for line, col, message in rule.check(ctx):
            if is_suppressed(suppressed, line, rule.code):
                continue
            diagnostics.append(
                Diagnostic(
                    path=str(path),
                    line=line,
                    col=col,
                    rule=rule.code,
                    message=message,
                )
            )
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diagnostics


def race_file(path: Union[str, Path]) -> List[Diagnostic]:
    """Analyse one file on disk."""
    path = Path(path)
    return race_source(path.read_text(encoding="utf-8"), path)


def analyze_paths(paths: Sequence[Union[str, Path]]) -> List[Diagnostic]:
    """Analyse every .py file under ``paths`` (dirs recursed, sorted)."""
    diagnostics: List[Diagnostic] = []
    for path in iter_python_files(paths):
        diagnostics.extend(race_file(path))
    return diagnostics
