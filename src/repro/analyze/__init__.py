"""``python -m repro.analyze`` -- every static analyzer, one invocation.

The repo carries four house analyzers with one shared finding model
(:class:`repro.lint.checker.Diagnostic`):

* **simlint** (``repro.lint``)  -- determinism hazards (SL rules),
* **simflow** (``repro.flow``)  -- message-protocol invariants (FL rules),
* **simstate** (``repro.state``) -- state inventory & snapshottability
  (ST rules),
* **simrace** (``repro.race``)  -- process-boundary safety for the
  exec pool (RC rules).

Running them separately means four CI steps, four exit codes, and
four SARIF artifacts for what is conceptually a single gate.  This
module fans one path list out to all four and merges the answers:

* exit code 0 only when *every* tool is clean; 1 if any finds anything;
  2 on usage errors,
* text output interleaves findings prefixed by tool name,
* ``--format sarif`` emits one SARIF 2.1.0 log whose ``runs`` array has
  one run per tool (the format is explicitly multi-run, and CI uploads
  annotate all of them from a single artifact),
* ``--jobs N`` runs the tools in parallel worker processes (they are
  independent by construction -- each parses the tree itself),
* ``--baseline FILE`` diffs against a committed SARIF log and fails
  only on findings *not* present in the baseline, so a gate can be
  ratcheted onto a codebase with known debt.  Baseline matching is by
  (tool, rule, file, message) -- line numbers are deliberately ignored
  so unrelated edits that shift a known finding do not break the gate.

The tools stay individually invocable (``python -m repro.lint`` etc.)
for focused runs; this is the aggregate gate CI uses.
"""

from __future__ import annotations

import argparse
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..flow.checker import analyze_paths as _flow_paths
from ..flow.rules import FLOW_RULES
from ..lint.checker import Diagnostic, lint_paths as _lint_paths
from ..lint.rules import RULES as LINT_RULES
from ..lint.sarif import SARIF_SCHEMA, SARIF_VERSION, sarif_report
from ..race.checker import analyze_paths as _race_paths
from ..race.rules import RACE_RULES
from ..state.checker import analyze_paths as _state_paths
from ..state.rules import STATE_RULES

__all__ = [
    "TOOLS",
    "run_tools",
    "merged_sarif",
    "baseline_fingerprints",
    "filter_baseline",
    "main",
]

# (name, runner, rule table) -- ordered as CI historically ran them.
TOOLS: Tuple[Tuple[str, Any, Any], ...] = (
    ("simlint", _lint_paths, LINT_RULES),
    ("simflow", _flow_paths, FLOW_RULES),
    ("simstate", _state_paths, STATE_RULES),
    ("simrace", _race_paths, RACE_RULES),
)

# A finding's identity for baseline diffing: line/column are excluded on
# purpose (edits above a known finding must not resurrect it).
Fingerprint = Tuple[str, str, str, str]


def _run_tool(name: str, paths: Sequence[str]) -> List[Diagnostic]:
    """Run one tool by name (module-level so worker processes can import it)."""
    for tool_name, runner, _rules in TOOLS:
        if tool_name == name:
            return runner(paths)
    raise ValueError(f"unknown analyzer {name!r}")


def run_tools(
    paths: Sequence[str],
    jobs: int = 1,
) -> List[Tuple[str, List[Diagnostic]]]:
    """Run every analyzer over ``paths``; returns (tool, findings) pairs.

    ``jobs > 1`` fans the tools out over worker processes.  Result order
    is always the ``TOOLS`` order, regardless of completion order.
    """
    names = [name for name, _runner, _rules in TOOLS]
    if jobs <= 1:
        return [(name, _run_tool(name, paths)) for name in names]
    with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        futures = [pool.submit(_run_tool, name, list(paths)) for name in names]
        return [
            (name, future.result())
            for name, future in zip(names, futures)
        ]


def merged_sarif(
    results: Sequence[Tuple[str, List[Diagnostic]]],
) -> Dict[str, Any]:
    """One SARIF log with one run per tool.

    Each tool's run is produced by the shared :func:`sarif_report` (so
    per-tool output is byte-identical to running that tool alone); the
    merge just concatenates the ``runs`` arrays under one envelope.
    """
    rules_of = {name: rules for name, _runner, rules in TOOLS}
    runs: List[Dict[str, Any]] = []
    for name, diagnostics in results:
        runs.extend(
            sarif_report(diagnostics, rules_of[name], name)["runs"]
        )
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": runs,
    }


def baseline_fingerprints(sarif: Dict[str, Any]) -> FrozenSet[Fingerprint]:
    """Extract (tool, rule, uri, message) fingerprints from a SARIF log.

    Accepts both single-run SARIF (one tool's own ``--format sarif``)
    and the merged multi-run log this module emits.
    """
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
    results: Sequence[Tuple[str, List[Diagnostic]]],
    baseline: FrozenSet[Fingerprint],
) -> Tuple[List[Tuple[str, List[Diagnostic]]], int]:
    """Drop findings present in ``baseline``; returns (new, matched count)."""
    filtered: List[Tuple[str, List[Diagnostic]]] = []
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
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the analyzers in N parallel processes (default: 1)",
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
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    results = run_tools(args.paths, jobs=args.jobs)

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
        text = json.dumps(merged_sarif(results), indent=2)
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 1 if total else 0

    lines = [
        f"{name}: {diag.format()}"
        for name, diags in results
        for diag in diags
    ]
    body = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(
            body + ("\n" if body else ""), encoding="utf-8"
        )
    elif body:
        print(body)
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
