"""``python -m repro.analyze`` -- every static analyzer, one core.

The repo carries four rule families with one finding model
(:class:`Diagnostic`):

* **simlint** (SL, :mod:`repro.lint.rules`) -- determinism hazards,
* **simflow** (FL, :mod:`repro.flow.rules`) -- message-protocol
  invariants,
* **simstate** (ST, :mod:`repro.state.rules`) -- state inventory and
  snapshottability,
* **simrace** (RC, :mod:`repro.race.rules`) -- process-boundary safety
  for the exec pool.

Every file is read and parsed once.  simlint and simrace check one
module at a time on a shared :class:`~repro.lint.rules.ModuleContext`;
simflow and simstate first build one model of the whole tree (the
protocol graph, the state inventory) and check that.  A family sees only
the modules in its scope, and a module that fails to parse yields that
family's ``<prefix>000`` finding.

A finding is silenced by ``# <family>: ignore[CODE]`` on its line (bare
``ignore`` silences every code of that family; one family's comment
never silences another's) or module-wide by :data:`ALLOWLIST`.

The CLI exits 0 only when every family is clean, 1 on findings and 2 on
usage errors, including paths that hold no ``.py`` file:

* text output prefixes each finding with its family,
* ``--format sarif`` emits one SARIF 2.1.0 log whose ``runs`` array has
  one run per family (the format is explicitly multi-run, and CI
  annotates all of them from a single artifact),
* ``--baseline FILE`` diffs against a committed SARIF log and fails
  only on findings *not* present in it, so a gate can be ratcheted onto
  a codebase with known debt.  Matching is by (family, rule, file,
  message) -- line numbers are deliberately ignored so unrelated edits
  that shift a known finding do not break the gate,
* ``--list-rules`` prints the rule tables, the allowlist and the
  suppression syntax; ``--inventory`` dumps simstate's per-class
  declared-state inventory as JSON instead of checking.

The rule modules never import this one.
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
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..flow.graph import build_protocol_graph
from ..flow.rules import FLOW_RULES, FLOW_SCOPE_PREFIXES
from ..lint.rules import RULES as LINT_RULES, ModuleContext
from ..race.rules import RACE_RULES
from ..state.inventory import (
    StateInventory,
    build_inventory,
    inventory_as_dict,
)
from ..state.rules import STATE_RULES, STATE_SCOPE_PREFIXES

__all__ = [
    "ALLOWLIST",
    "AllowlistEntry",
    "Diagnostic",
    "TOOLS",
    "Tool",
    "baseline_fingerprints",
    "build_tree_inventory",
    "check_paths",
    "check_sources",
    "filter_baseline",
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


class Tool(NamedTuple):
    """One rule family."""

    name: str
    #: Code prefix; ``<prefix>000`` reports a module that fails to parse.
    prefix: str
    rules: Tuple[Any, ...]
    #: Module-path prefixes the family sees; ``None`` means every module.
    scope: Optional[Tuple[str, ...]] = None
    #: Builds the whole-tree model the rules check from ``(module_path,
    #: tree)`` pairs sorted by module path; ``None`` checks each module
    #: on its own :class:`ModuleContext`.
    build: Optional[Callable[[List[Tuple[str, ast.Module]]], Any]] = None

    def sees(self, module_path: str) -> bool:
        return self.scope is None or module_path.startswith(self.scope)


#: The four families, in the order their results are reported.
TOOLS: Tuple[Tool, ...] = (
    Tool("simlint", "SL", LINT_RULES),
    Tool(
        "simflow", "FL", FLOW_RULES, FLOW_SCOPE_PREFIXES, build_protocol_graph
    ),
    Tool(
        "simstate", "ST", STATE_RULES, STATE_SCOPE_PREFIXES, build_inventory
    ),
    Tool("simrace", "RC", RACE_RULES),
)


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
#: Prefer a per-line ``# <family>: ignore[RULE]`` for one-off sites.
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
        rule="ST004",
        module="repro/sim/rng.py",
        justification=(
            "the named-stream facade itself: DeterministicRNG wraps "
            "random.Random behind sha256-derived (seed, name) streams "
            "and substream() necessarily constructs new instances; "
            "snapshot/restore captures them via getstate()/setstate()"
        ),
    ),
    AllowlistEntry(
        rule="ST004",
        module="repro/runtime/system.py",
        justification=(
            "the system root constructs the one root DeterministicRNG "
            "stream per run (seeded from SystemConfig.seed); every "
            "other consumer derives a substream from it"
        ),
    ),
    AllowlistEntry(
        rule="ST003",
        module="repro/runtime/task.py",
        justification=(
            "_task_ids is a process-global monotonic itertools.count "
            "used only for relative ordering (reserved_id comparisons "
            "in NDPUnit._next_task); a restore that resumes the count "
            "at a shifted base preserves every comparison, so the "
            "counter is snapshot-safe without being captured.  The "
            "snapshot manifest records task ids symbolically, never "
            "the counter position"
        ),
    ),
    AllowlistEntry(
        rule="ST003",
        module="repro/messages/types.py",
        justification=(
            "_message_ids is a process-global monotonic itertools.count "
            "used only for identity (auditor ledger keys, wire-cache "
            "tags); ids never feed control flow or arithmetic, so a "
            "shifted base after restore is behaviour-preserving and "
            "the counter needs no capture"
        ),
    ),
)


def _validate_allowlist() -> None:
    codes = {rule.code for tool in TOOLS for rule in tool.rules}
    seen = set()
    for entry in ALLOWLIST:
        if entry.rule not in codes:
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
    r"#\s*(" + "|".join(tool.name for tool in TOOLS) + r"):\s*"
    r"ignore(?:\[([A-Za-z0-9_,\s]+)\])?"
)

#: The codes a bare ``# <family>: ignore`` silences.
_EVERY_CODE: FrozenSet[str] = frozenset({"*"})

Suppressions = Dict[Tuple[str, int], FrozenSet[str]]


def suppressions(source: str) -> Suppressions:
    """Map ``(family, line)`` to the codes silenced there.

    Only the first ``# <family>: ignore`` comment of each family on a
    line counts; a bare one maps to ``{"*"}``.
    """
    out: Suppressions = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in _SUPPRESS_RE.finditer(text):
            key = (match.group(1), lineno)
            if key in out:
                continue
            codes = match.group(2)
            out[key] = _EVERY_CODE if codes is None else frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return out


def _silenced(
    suppressed: Suppressions,
    family: str,
    code: str,
    module_path: str,
    line: int,
) -> bool:
    codes = suppressed.get((family, line), frozenset())
    return "*" in codes or code in codes or is_allowlisted(code, module_path)


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
Results = List[Tuple[str, List[Diagnostic]]]


def _order(diag: Diagnostic) -> Tuple[str, int, int, str]:
    return (diag.path, diag.line, diag.col, diag.rule)


def check_sources(
    modules: Iterable[Tuple[Union[str, Path], str, str]]
) -> Results:
    """Check ``(path, module_path, source)`` triples as one tree.

    Returns ``(family, findings)`` pairs in :data:`TOOLS` order.  A
    per-module family's findings are sorted within each module and
    kept in input order; a whole-tree family's are sorted once.
    """
    found: Dict[str, List[Diagnostic]] = {tool.name: [] for tool in TOOLS}
    trees: Dict[str, List[Tuple[str, ast.Module]]] = {
        tool.name: [] for tool in TOOLS
    }
    # module path -> (file path, suppressions); the last file wins.
    where: Dict[str, Tuple[str, Suppressions]] = {}
    for raw_path, module_path, source in modules:
        path = str(Path(raw_path))
        tools = [tool for tool in TOOLS if tool.sees(module_path)]
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            for tool in tools:
                found[tool.name].append(
                    Diagnostic(
                        path=path,
                        line=exc.lineno or 1,
                        col=exc.offset or 0,
                        rule=f"{tool.prefix}000",
                        message=f"syntax error: {exc.msg}",
                    )
                )
            continue
        suppressed = suppressions(source)
        where[module_path] = (path, suppressed)
        ctx = ModuleContext(
            tree=tree, module_path=module_path, fs_parts=Path(path).parts
        )
        for tool in tools:
            if tool.build is not None:
                trees[tool.name].append((module_path, tree))
                continue
            here = [
                Diagnostic(path, line, col, rule.code, message)
                for rule in tool.rules
                for line, col, message in rule.check(ctx)
                if not _silenced(
                    suppressed, tool.name, rule.code, module_path, line
                )
            ]
            found[tool.name].extend(sorted(here, key=_order))

    for tool in TOOLS:
        if tool.build is None:
            continue
        model = tool.build(sorted(trees[tool.name], key=lambda mt: mt[0]))
        for rule in tool.rules:
            for module_path, line, col, message in rule.check(model):
                path, suppressed = where[module_path]
                if not _silenced(
                    suppressed, tool.name, rule.code, module_path, line
                ):
                    found[tool.name].append(
                        Diagnostic(path, line, col, rule.code, message)
                    )
        found[tool.name].sort(key=_order)
    return [(tool.name, found[tool.name]) for tool in TOOLS]


def check_paths(paths: Sequence[Union[str, Path]]) -> Results:
    """Check every .py file under ``paths`` (dirs recursed, sorted)."""
    return check_sources(
        (path, module_path_of(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    )


def build_tree_inventory(
    paths: Sequence[Union[str, Path]],
) -> StateInventory:
    """simstate's raw inventory for ``paths`` (``--inventory``, and the
    snapshot cross-check); modules that fail to parse are left out."""
    parsed: List[Tuple[str, ast.Module]] = []
    for path in iter_python_files(paths):
        module_path = module_path_of(path)
        if not module_path.startswith(STATE_SCOPE_PREFIXES):
            continue
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        parsed.append((module_path, tree))
    return build_inventory(sorted(parsed, key=lambda mt: mt[0]))


# ----------------------------------------------------------------------
# SARIF and baselines
# ----------------------------------------------------------------------
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)


def _sarif_run(tool: Tool, diagnostics: List[Diagnostic]) -> Dict[str, Any]:
    index = {rule.code: i for i, rule in enumerate(tool.rules)}
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
        # The <prefix>000 pseudo-rules are in no table: no ruleIndex.
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
        for rule in tool.rules
    ]
    return {
        "tool": {
            "driver": {
                "name": tool.name,
                "version": "1.0.0",
                "rules": descriptors,
            }
        },
        "results": results,
    }


def sarif_log(results: Results) -> Dict[str, Any]:
    """One SARIF 2.1.0 log with one run per family."""
    tool_of = {tool.name: tool for tool in TOOLS}
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            _sarif_run(tool_of[name], diagnostics)
            for name, diagnostics in results
        ],
    }


# A finding's identity for baseline diffing: line/column are excluded on
# purpose (edits above a known finding must not resurrect it).
Fingerprint = Tuple[str, str, str, str]


def baseline_fingerprints(sarif: Dict[str, Any]) -> FrozenSet[Fingerprint]:
    """Extract (family, rule, uri, message) fingerprints from a SARIF log,
    single-run or multi-run."""
    fingerprints = set()
    for run in sarif.get("runs", ()):
        tool = (
            run.get("tool", {}).get("driver", {}).get("name", "")
        )
        for result in run.get("results", ()):
            uri = ""
            locations = result.get("locations", ())
            if locations:
                uri = (
                    locations[0]
                    .get("physicalLocation", {})
                    .get("artifactLocation", {})
                    .get("uri", "")
                )
            fingerprints.add(
                (
                    tool,
                    result.get("ruleId", ""),
                    uri,
                    result.get("message", {}).get("text", ""),
                )
            )
    return frozenset(fingerprints)


def filter_baseline(
    results: Results,
    baseline: FrozenSet[Fingerprint],
) -> Tuple[Results, int]:
    """Drop findings present in ``baseline``; returns (new, matched count)."""
    filtered: Results = []
    matched = 0
    for name, diagnostics in results:
        fresh = []
        for diag in diagnostics:
            key = (
                name,
                diag.rule,
                Path(diag.path).as_posix(),
                diag.message,
            )
            if key in baseline:
                matched += 1
            else:
                fresh.append(diag)
        filtered.append((name, fresh))
    return filtered, matched


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------
def _list_rules() -> str:
    blocks = []
    for tool in TOOLS:
        lines = [f"{tool.name} rules:"]
        for rule in tool.rules:
            lines.append(f"  {rule.code}  {rule.name}")
            lines.append(f"         {rule.description}")
        allowed = [e for e in ALLOWLIST if e.rule.startswith(tool.prefix)]
        if allowed:
            lines.append("")
            lines.append("allowlisted modules:")
            for entry in allowed:
                lines.append(
                    f"  {entry.rule}  {entry.module}: {entry.justification}"
                )
        lines.append("")
        lines.append(
            f"suppress a single line with `# {tool.name}: "
            f"ignore[{tool.rules[0].code}]` (comma-separate codes; bare "
            f"`# {tool.name}: ignore` silences all)"
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


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
        description=(
            "run simlint + simflow + simstate + simrace with one exit "
            "code and one merged SARIF report"
        ),
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
        help="print the rule tables and the allowlist, then exit",
    )
    parser.add_argument(
        "--inventory",
        action="store_true",
        help="dump simstate's per-class declared-state inventory as JSON",
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
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the per-tool summary lines",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "SARIF log of accepted findings; only findings absent from "
            "it count toward the exit code"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    # A mistyped path must not pass the gate by checking nothing.
    if not iter_python_files(args.paths):
        parser.error(f"no python files found under {args.paths!r}")

    if args.inventory:
        inventory = build_tree_inventory(args.paths)
        _emit(json.dumps(inventory_as_dict(inventory), indent=2), args.output)
        return 0

    results = check_paths(args.paths)

    matched = 0
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            parser.error(f"baseline not found: {args.baseline}")
        baseline = baseline_fingerprints(
            json.loads(baseline_path.read_text(encoding="utf-8"))
        )
        results, matched = filter_baseline(results, baseline)

    total = sum(len(diags) for _name, diags in results)

    if args.format == "sarif":
        _emit(json.dumps(sarif_log(results), indent=2), args.output)
        return 1 if total else 0

    _emit(
        "\n".join(
            f"{name}: {diag.format()}"
            for name, diags in results
            for diag in diags
        ),
        args.output,
    )
    if not args.quiet:
        for name, diags in results:
            if diags:
                print(f"{name}: {len(diags)} finding(s)")
            else:
                print(f"{name}: clean")
        if matched:
            print(f"analyze: {matched} baseline finding(s) suppressed")
        if not total:
            verdict = "clean"
        elif args.baseline:
            verdict = f"{total} new finding(s)"
        else:
            verdict = f"{total} finding(s)"
        print(f"analyze: {verdict} -- {len(TOOLS)} tools")
    return 1 if total else 0
