"""``python -m repro.race`` -- the simrace command line.

Follows the ``repro.lint`` / ``repro.flow`` / ``repro.state``
conventions: exit 0 when clean, 1 when findings survive suppression, 2
on usage errors; ``--format sarif`` emits SARIF 2.1.0 for CI
annotation.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from ..lint.sarif import sarif_report
from .checker import analyze_paths
from .rules import RACE_RULES


def _list_rules() -> str:
    lines = ["simrace rules:"]
    for rule in RACE_RULES:
        lines.append(f"  {rule.code}  {rule.name}")
        lines.append(f"         {rule.description}")
    lines.append("")
    lines.append(
        "suppress a single line with `# simrace: ignore[RC002]` "
        "(comma-separate codes; bare `# simrace: ignore` silences all)"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.race",
        description=(
            "simrace: process-boundary static analysis for the exec "
            "pool (RC002, RC003, RC005)"
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
        help="print the rule table, then exit",
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
        help="suppress the summary line",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    diagnostics = analyze_paths(args.paths)

    if args.format == "sarif":
        text = json.dumps(
            sarif_report(diagnostics, RACE_RULES, "simrace"), indent=2
        )
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 1 if diagnostics else 0

    body = "\n".join(diag.format() for diag in diagnostics)
    if args.output:
        Path(args.output).write_text(
            body + ("\n" if body else ""), encoding="utf-8"
        )
    elif body:
        print(body)
    if not args.quiet:
        total = len(diagnostics)
        if total:
            print(
                f"simrace: {total} finding(s) ({len(RACE_RULES)} rules)"
            )
        else:
            print(f"simrace: clean -- {len(RACE_RULES)} rules")
    return 1 if diagnostics else 0
