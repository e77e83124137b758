"""Snapshot/restore cost benchmark: capture, fork, resume wall-clock.

Tracks the checkpoint machinery's own performance the way
``bench_engine.py`` tracks the serial hot path: the fixed tree-on-O
workload runs once straight through and once paused at mid-run for a
:func:`repro.state.snapshot.snapshot` capture + fork + resume, and the
costs land in ``BENCH_snapshot.json`` at the repo root.

Three numbers matter and are recorded per run:

* ``capture_s`` / ``fork_s`` -- one deep clone each (the snapshot's
  freeze and its restore); both scale with live state, not history,
* ``size_bytes`` -- recursive in-memory footprint of the frozen clone,
  and ``size_by_class`` the same bytes grouped by the class of the model
  object that owns them,
* ``overhead_ratio`` -- (pause + capture + fork + resume) wall vs the
  uninterrupted run; the equivalence oracle asserts the metrics are
  bit-identical while the clock shows what the checkpoint cost.

Costs are *recorded, never asserted* (CI boxes vary); the equivalence
assertion is the only hard check.  ``NDPBRIDGE_BENCH_SMOKE=1`` shrinks
the workload and records under ``_smoke`` keys.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Set

from repro import Design, make_app, run_app
from repro.config import scaled_config
from repro.state.snapshot import (
    _deep_size,
    component_registry,
    restore,
    snapshot,
)

from .common import record

SMOKE = os.environ.get("NDPBRIDGE_BENCH_SMOKE", "0") not in ("0", "")

APP = "tree"
DESIGN = Design.O
SEED = 17
UNITS = 128 if SMOKE else 256
SCALE = 0.1 if SMOKE else 0.35


def _suffix(key: str) -> str:
    return f"{key}_smoke" if SMOKE else key


def size_by_class(system: Any, app: Any) -> Dict[str, int]:
    """Bytes of a (system, app) graph by the class of their owner.

    The owners are the model objects of ``component_registry``, walked
    in its order (the system's, then the app's).  Each object is counted
    once, charged to the first owner that reaches it without passing
    through another owner.  Largest class first.
    """
    owners: Dict[int, Any] = {}
    for root, root_id in ((system, "system"), (app, "app")):
        for obj in component_registry(root, root_id).values():
            owners.setdefault(id(obj), obj)
    seen: Set[int] = set()
    sizes: Dict[str, int] = {}
    for obj in owners.values():
        name = type(obj).__name__
        sizes[name] = sizes.get(name, 0) + _deep_size(obj, seen, owners)
    return dict(sorted(sizes.items(), key=lambda kv: (-kv[1], kv[0])))


def test_snapshot_capture_resume_cost():
    """Checkpoint mid-run, resume the clone, compare against run-through."""
    cfg = scaled_config(UNITS, DESIGN, seed=42)

    t0 = time.perf_counter()
    base = run_app(make_app(APP, scale=SCALE, seed=SEED), cfg)
    base_wall = time.perf_counter() - t0
    snapshot_at = max(1, base.metrics.makespan // 2)

    from repro.analysis.metrics import collect_metrics
    from repro.runtime.runner import build_system

    app = make_app(APP, scale=SCALE, seed=SEED)
    t0 = time.perf_counter()
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=snapshot_at)
    pause_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    snap = snapshot(system, app)
    capture_s = time.perf_counter() - t0
    size_bytes = snap.size_bytes()

    t0 = time.perf_counter()
    fork_system, fork_app = restore(snap)
    fork_s = time.perf_counter() - t0
    # The fork is a deep clone of the frozen graph, so before it runs it
    # holds the same objects at the same sizes.
    by_class = size_by_class(fork_system, fork_app)

    t0 = time.perf_counter()
    fork_system.finish()
    resume_wall = time.perf_counter() - t0
    assert fork_app.verify(), "snapshot-resume failed app verification"
    forked = collect_metrics(fork_system, APP)

    assert forked.makespan == base.metrics.makespan, (
        f"snapshot-resume diverged: {forked.makespan} "
        f"!= {base.metrics.makespan}"
    )

    checkpoint_wall = pause_wall + capture_s + fork_s + resume_wall
    overhead = checkpoint_wall / base_wall if base_wall > 0 else None
    record("BENCH_snapshot.json", _suffix("snapshot_tree_on_O"), {
        "units": UNITS,
        "scale": SCALE,
        "seed": SEED,
        "snapshot_at": snapshot_at,
        "makespan": base.metrics.makespan,
        "events": fork_system.sim.events_processed,
        "base_wall_s": round(base_wall, 4),
        "capture_s": round(capture_s, 4),
        "fork_s": round(fork_s, 4),
        "resume_wall_s": round(resume_wall, 4),
        "size_bytes": size_bytes,
        "size_by_class": by_class,
        "overhead_ratio": round(overhead, 3) if overhead else None,
    })
    print(
        f"\nsnapshot: {UNITS} units, pause@{snapshot_at} -> "
        f"capture {capture_s:.3f}s, fork {fork_s:.3f}s, "
        f"{size_bytes / 1e6:.1f} MB, "
        f"checkpointed run {overhead:.2f}x of straight-through"
    )
    for name, nbytes in list(by_class.items())[:8]:
        print(f"  {name:<24} {nbytes / 1e6:8.3f} MB")
