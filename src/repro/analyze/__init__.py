"""``python -m repro.analyze`` -- the static-analysis gate.

One rule family, simlint (:mod:`repro.lint.rules`), with one finding
model (:class:`Diagnostic`).  Every file is read and parsed once, and
every rule checks one module at a time on a
:class:`~repro.lint.rules.ModuleContext`, so each file is checked on its
own even when two share a module path.  A rule that guards only some
packages scopes itself by module path; a module that fails to parse
yields one ``SL000`` finding.

A finding is silenced by ``# simlint: ignore[CODE]`` on its line (bare
``ignore`` silences every code) or module-wide by :data:`ALLOWLIST`.

The CLI exits 0 only when the gate is clean, 1 on findings and 2 on
usage errors, including a path that does not exist or paths that hold no
``.py`` file:

* text output is one ``path:line:col: CODE message`` row per finding and
  a one-line verdict,
* ``--format sarif`` emits one SARIF 2.1.0 log with one run,
* ``--list-rules`` prints the rule table, the allowlist and the
  suppression syntax.

The rule module never imports this one.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..lint.rules import RULE_CODES, RULES, ModuleContext

__all__ = [
    "ALLOWLIST",
    "AllowlistEntry",
    "Diagnostic",
    "check_paths",
    "check_sources",
    "is_allowlisted",
    "iter_python_files",
    "main",
    "module_path_of",
    "sarif_log",
    "suppressions",
]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ----------------------------------------------------------------------
# the allowlist
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllowlistEntry:
    """One sanctioned (rule, module) pair."""

    rule: str
    #: Module path relative to the package root, e.g. "repro/sim/rng.py".
    module: str
    justification: str


#: Sanctioned exceptions, for modules whose *purpose* is the exception.
#: Prefer a per-line ``# simlint: ignore[RULE]`` for one-off sites.
#: Every entry must say why; :func:`_validate_allowlist` refuses an
#: empty justification, an unknown code or a duplicate at import.
ALLOWLIST: Tuple[AllowlistEntry, ...] = (
    AllowlistEntry(
        rule="SL002",
        module="repro/sim/rng.py",
        justification=(
            "the sanctioned randomness facade: wraps random.Random behind "
            "seeded, named DeterministicRNG streams; every other module "
            "must go through it"
        ),
    ),
    AllowlistEntry(
        rule="SL010",
        module="repro/sim/rng.py",
        justification=(
            "the named-stream facade itself: DeterministicRNG wraps "
            "random.Random behind sha256-derived (seed, name) streams "
            "and substream() necessarily constructs new instances; each "
            "one derives from the run's root seed, so the run stays "
            "reproducible from that seed"
        ),
    ),
    AllowlistEntry(
        rule="SL010",
        module="repro/runtime/system.py",
        justification=(
            "the system root constructs the one root DeterministicRNG "
            "stream per run (seeded from SystemConfig.seed); every "
            "other consumer derives a substream from it"
        ),
    ),
    AllowlistEntry(
        rule="SL009",
        module="repro/runtime/task.py",
        justification=(
            "_task_ids is a process-global monotonic itertools.count "
            "used only for relative ordering (reserved_id comparisons "
            "in NDPUnit._next_task); a pool worker keeps the count from "
            "one cell to the next, so a later cell's ids start at a "
            "higher base, which preserves every comparison and so "
            "cannot change the cell's result"
        ),
    ),
    AllowlistEntry(
        rule="SL009",
        module="repro/messages/types.py",
        justification=(
            "_message_ids is a process-global monotonic itertools.count "
            "used only to name a message in error reports; ids never "
            "feed control flow or arithmetic, so the higher base a pool "
            "worker carries into its next cell cannot change that cell's "
            "result"
        ),
    ),
)


def _validate_allowlist() -> None:
    seen = set()
    for entry in ALLOWLIST:
        if entry.rule not in RULE_CODES:
            raise ValueError(f"allowlist names unknown rule {entry.rule!r}")
        if not entry.justification.strip():
            raise ValueError(
                f"allowlist entry ({entry.rule}, {entry.module}) has no "
                f"justification -- every sanctioned site must say why"
            )
        key = (entry.rule, entry.module)
        if key in seen:
            raise ValueError(f"duplicate allowlist entry {key}")
        seen.add(key)


_validate_allowlist()


def is_allowlisted(rule: str, module_path: str) -> bool:
    """True if ``rule`` is sanctioned for the module at ``module_path``."""
    return any(
        entry.rule == rule and entry.module == module_path
        for entry in ALLOWLIST
    )


# ----------------------------------------------------------------------
# files, module paths and suppressions
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of .py files."""
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique: List[Path] = []
    for f in files:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def module_path_of(path: Path) -> str:
    """Path relative to the package root, e.g. 'repro/sim/engine.py'.

    The root is the *last* ``repro`` component, so a checkout that lives
    below a directory named ``repro`` is scoped like any other.  Files
    outside a ``repro`` package keep their name, which means path-scoped
    rules simply do not fire on them.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?"
)

#: The codes a bare ``# simlint: ignore`` silences.
_EVERY_CODE: FrozenSet[str] = frozenset({"*"})


def suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map each line to the codes silenced there.

    Only the first ``# simlint: ignore`` comment on a line counts; a bare
    one maps to ``{"*"}``.
    """
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = match.group(1)
        out[lineno] = _EVERY_CODE if codes is None else frozenset(
            c.strip().upper() for c in codes.split(",") if c.strip()
        )
    return out


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
def _order(diag: Diagnostic) -> Tuple[str, int, int, str]:
    return (diag.path, diag.line, diag.col, diag.rule)


def check_sources(
    modules: Iterable[Tuple[Union[str, Path], str, str]]
) -> List[Diagnostic]:
    """Check ``(path, module_path, source)`` triples, one at a time.

    Returns every finding, sorted by path, line, column and code.
    """
    found: List[Diagnostic] = []
    for raw_path, module_path, source in modules:
        path = str(Path(raw_path))
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            found.append(
                Diagnostic(
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule="SL000",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        suppressed = suppressions(source)
        ctx = ModuleContext(
            tree=tree, module_path=module_path, fs_parts=Path(path).parts
        )
        for rule in RULES:
            for line, col, message in rule.check(ctx):
                codes = suppressed.get(line, frozenset())
                if not (
                    "*" in codes
                    or rule.code in codes
                    or is_allowlisted(rule.code, module_path)
                ):
                    found.append(
                        Diagnostic(path, line, col, rule.code, message)
                    )
    return sorted(found, key=_order)


def check_paths(paths: Sequence[Union[str, Path]]) -> List[Diagnostic]:
    """Check every .py file under ``paths`` (dirs recursed, sorted)."""
    return check_sources(
        (path, module_path_of(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    )


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)


def sarif_log(diagnostics: List[Diagnostic]) -> Dict[str, Any]:
    """One SARIF 2.1.0 log with one run."""
    index = {rule.code: i for i, rule in enumerate(RULES)}
    results: List[Dict[str, Any]] = []
    for diag in diagnostics:
        result: Dict[str, Any] = {
            "ruleId": diag.rule,
            "level": "error",
            "message": {"text": diag.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(diag.path).as_posix(),
                        },
                        "region": {
                            "startLine": max(1, diag.line),
                            # SARIF columns are 1-based; ast's are 0-based.
                            "startColumn": max(1, diag.col + 1),
                        },
                    }
                }
            ],
        }
        # The SL000 pseudo-rule is in no table: no ruleIndex.
        if diag.rule in index:
            result["ruleIndex"] = index[diag.rule]
        results.append(result)
    descriptors = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in RULES
    ]
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "version": "1.0.0",
                        "rules": descriptors,
                    }
                },
                "results": results,
            }
        ],
    }


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------
def _list_rules() -> str:
    lines = ["simlint rules:"]
    for rule in RULES:
        lines.append(f"  {rule.code}  {rule.name}")
        lines.append(f"         {rule.description}")
    lines.append("")
    lines.append("allowlisted modules:")
    for entry in ALLOWLIST:
        lines.append(f"  {entry.rule}  {entry.module}: {entry.justification}")
    lines.append("")
    lines.append(
        f"suppress a single line with `# simlint: ignore[{RULES[0].code}]` "
        f"(comma-separate codes; bare `# simlint: ignore` silences all)"
    )
    return "\n".join(lines)


def _emit(text: str, output: Optional[str]) -> None:
    """Write ``text`` to ``output``, or print it when there is any."""
    if output:
        Path(output).write_text(
            text + ("\n" if text else ""), encoding="utf-8"
        )
    elif text:
        print(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="run the simlint rules with one exit code",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and the allowlist, then exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        dest="format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    # A mistyped path must not pass the gate by checking nothing.
    for raw in args.paths:
        if not Path(raw).exists():
            parser.error(
                f"no python files at {raw!r}: no such file or directory"
            )
    if not iter_python_files(args.paths):
        parser.error(f"no python files found under {args.paths!r}")

    diagnostics = check_paths(args.paths)

    if args.format == "sarif":
        _emit(json.dumps(sarif_log(diagnostics), indent=2), args.output)
    else:
        _emit("\n".join(diag.format() for diag in diagnostics), args.output)
        print(
            f"simlint: {len(diagnostics)} finding(s)"
            if diagnostics
            else "simlint: clean"
        )
    return 1 if diagnostics else 0
