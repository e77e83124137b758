"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one table/figure of the paper's evaluation
(Section VIII).  Default sizes are reduced-but-faithful so the whole
harness runs in minutes of pure Python; two environment knobs grow runs
toward paper scale:

* ``NDPBRIDGE_BENCH_UNITS`` -- NDP unit count (64..1024, default 128;
  512 is the paper's Table-I system),
* ``NDPBRIDGE_BENCH_SCALE`` -- workload size multiplier (default 1.0).

Every grid of cells runs through :func:`run_matrix`, and results are
printed with :mod:`repro.analysis.report`'s tables, mirroring the
paper's figure series; assertions check the qualitative *shape* (who
wins, roughly by how much), never absolute cycle counts.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

from repro.analysis import RunMetrics
from repro.config import Design, SystemConfig, scaled_config
from repro.exec import run_matrix as exec_run_matrix

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


def run_matrix(
    apps: Sequence[str],
    configs: Mapping[str, SystemConfig],
    scale: Optional[float] = None,
) -> Dict[str, Dict[str, RunMetrics]]:
    """:func:`repro.exec.run_matrix` at the bench scale and seed.

    ``results[app][label]`` for every label of ``configs``.  Cells fan
    out over a process pool and hit the on-disk result cache;
    ``NDPBRIDGE_JOBS`` and ``NDPBRIDGE_CACHE_DIR`` / ``NDPBRIDGE_CACHE=0``
    control both.
    """
    return exec_run_matrix(
        apps, configs, scale=BENCH_SCALE if scale is None else scale,
        seed=BENCH_SEED,
    )
