"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one table/figure of the paper's evaluation
(Section VIII).  Default sizes are reduced-but-faithful so the whole
harness runs in minutes of pure Python; two environment knobs grow runs
toward paper scale:

* ``NDPBRIDGE_BENCH_UNITS`` -- NDP unit count (64..1024, default 128;
  512 is the paper's Table-I system),
* ``NDPBRIDGE_BENCH_SCALE`` -- workload size multiplier (default 0.35).

Results are printed as aligned text tables mirroring the paper's figure
series; assertions check the qualitative *shape* (who wins, roughly by
how much), never absolute cycle counts.
"""

from __future__ import annotations

import json
import math
import os
import platform
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro import Design, make_app, run_app
from repro.analysis import RunMetrics
from repro.config import SystemConfig, scaled_config

BENCH_UNITS = int(os.environ.get("NDPBRIDGE_BENCH_UNITS", "128"))
BENCH_SCALE = float(os.environ.get("NDPBRIDGE_BENCH_SCALE", "1.0"))

#: The paper's application order (Section VII).
ALL_APPS = ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc"]

#: Fast subset used by the parameter sweeps of Fig. 16.
SWEEP_APPS = ["ll", "tree", "pr"]

#: Seed shared by all benchmark runs (results are fully deterministic).
BENCH_SEED = 17


#: The ``BENCH_*.json`` records live at the repo root.
REPO_ROOT = Path(__file__).resolve().parent.parent


def record(json_name: str, key: str, payload: dict) -> None:
    """Merge one measurement into ``REPO_ROOT/json_name`` under ``key``.

    Every record is stamped with the machine's ``cpu_count`` and the
    Python version, so a number is never read without the box it was
    measured on.  A torn or missing file starts a fresh record set.
    """
    path = REPO_ROOT / json_name
    data: Dict[str, object] = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data[key] = {
        **payload,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def bench_config(
    design: Design, units: Optional[int] = None
) -> SystemConfig:
    """The benchmark system configuration for one design point."""
    return scaled_config(units or BENCH_UNITS, design, seed=BENCH_SEED)


def run_one(
    app_name: str,
    design: Design,
    config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
) -> RunMetrics:
    """Run one (app, design) pair and return its metrics (verified)."""
    app = make_app(app_name, scale=scale or BENCH_SCALE, seed=BENCH_SEED)
    cfg = config if config is not None else bench_config(design)
    return run_app(app, cfg).metrics


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values]
    if not vals:
        # Returning 0.0 here once silently poisoned speedup aggregation
        # (an empty app list looked like an infinite slowdown).
        raise ValueError("geomean of an empty sequence is undefined")
    return math.exp(sum(math.log(max(v, 1e-12)) for v in vals) / len(vals))


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned text table (the bench harness's 'figure')."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def speedups_vs(
    results: Dict[str, Dict[str, RunMetrics]], baseline: str
) -> Dict[str, Dict[str, float]]:
    """Per-app speedup of every design over ``baseline``."""
    out: Dict[str, Dict[str, float]] = {}
    for app_name, per_design in results.items():
        base = per_design[baseline].makespan
        out[app_name] = {
            d: base / m.makespan for d, m in per_design.items()
        }
    return out


def run_matrix(
    apps: Sequence[str],
    designs: Sequence[Design],
    config_of=None,
    scale: Optional[float] = None,
) -> Dict[str, Dict[str, RunMetrics]]:
    """Run the (app x design) matrix; ``config_of(design)`` overrides.

    Cells fan out over a process pool and hit the on-disk result cache
    (see :mod:`repro.exec`); ``NDPBRIDGE_JOBS`` and
    ``NDPBRIDGE_CACHE_DIR`` / ``NDPBRIDGE_CACHE=0`` control both.
    """
    from repro.exec import run_matrix as exec_run_matrix

    return exec_run_matrix(
        apps,
        designs,
        config_of=config_of if config_of is not None else bench_config,
        scale=scale if scale is not None else BENCH_SCALE,
        seed=BENCH_SEED,
    )
