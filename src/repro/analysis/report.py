"""Result reporting: aligned text tables, speedup summaries, JSON export.

The benchmark harness and the CLI share these helpers so every surface
prints the same paper-style tables.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .metrics import RunMetrics


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        # Returning 0.0 here once silently poisoned speedup aggregation
        # (an empty app list looked like an infinite slowdown).
        raise ValueError("geomean of an empty sequence is undefined")
    return math.exp(sum(math.log(max(v, 1e-12)) for v in vals) / len(vals))


def format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def text_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[format_cell(c) for c in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(f"=== {title} ===")
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def speedups(
    results: Mapping[str, Mapping[str, RunMetrics]], baseline: str
) -> Dict[str, Dict[str, float]]:
    """Per-app speedup of every column over the ``baseline`` column."""
    return {
        app: {
            label: row[baseline].makespan / m.makespan
            for label, m in row.items()
        }
        for app, row in results.items()
    }


def speedup_summary(
    results: Mapping[str, Mapping[str, RunMetrics]],
    baseline: str,
    designs: Sequence[str],
) -> str:
    """A Fig.-10-style speedup table with a geomean row."""
    table = speedups(results, baseline)
    rows: List[List[object]] = [
        [app] + [row[d] for d in designs] for app, row in table.items()
    ]
    rows.append(["geomean"] + [
        geomean(row[d] for row in table.values()) for d in designs
    ])
    return text_table(
        ["app"] + list(designs), rows,
        title=f"speedup over design {baseline}",
    )


def metrics_row(m: RunMetrics) -> List[object]:
    return [
        m.app, m.design, m.makespan, round(m.avg_unit_time),
        m.wait_fraction, m.avg_over_max, m.tasks_executed,
        m.task_messages, m.data_messages,
    ]


METRICS_HEADERS = [
    "app", "design", "makespan", "avg_busy", "wait", "avg/max",
    "tasks", "task_msgs", "data_msgs",
]


def metrics_table(metrics: Sequence[RunMetrics], title: str = "runs") -> str:
    return text_table(
        METRICS_HEADERS, [metrics_row(m) for m in metrics], title=title
    )


def to_json(
    results: Mapping[str, Mapping[str, RunMetrics]], indent: int = 2
) -> str:
    """Serialize a result matrix for offline plotting."""
    payload = {
        app: {design: m.as_dict() for design, m in by_design.items()}
        for app, by_design in results.items()
    }
    return json.dumps(payload, indent=indent, default=str)


def energy_table(
    results: Mapping[str, RunMetrics], title: str = "energy (uJ)"
) -> str:
    rows = []
    for key, m in results.items():
        if m.energy is None:
            continue
        e = m.energy
        rows.append([
            key, e.core_sram_pj / 1e6, e.local_dram_pj / 1e6,
            e.comm_dram_pj / 1e6, e.static_pj / 1e6, e.total_pj / 1e6,
        ])
    return text_table(
        ["run", "core+SRAM", "local DRAM", "comm DRAM", "static", "total"],
        rows, title=title,
    )
