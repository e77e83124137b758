"""Snapshot/restore subsystem: the run-through equivalence oracle.

The contract under test (docs/ARCHITECTURE.md, "State inventory &
checkpointing"): pausing any run at any cycle, freezing it with
:func:`repro.state.snapshot.snapshot`, and finishing from the restored
clone is *bit-identical* to never having paused -- same makespan, same
event counts, every metric -- across the full app x design matrix,
plain and sanitized.  A snapshot is also re-forkable
(each fork is independent) and refuses unsnapshottable state loudly.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import make_app
from repro.config import Design, tiny_config
from repro.runtime.runner import build_system, run_app
from repro.state.snapshot import (
    SnapshotError,
    restore,
    run_app_with_snapshot,
    snapshot,
    verify_inventory,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

APPS = ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc"]
NDP_DESIGNS = [Design.C, Design.B, Design.W, Design.O]


def _metrics(result):
    return dataclasses.asdict(result.metrics)


def _mid_run(app, design, scale=0.1, seed=7):
    """Baseline run plus a mid-makespan pause cycle for the same cell."""
    cfg = tiny_config(design)
    base = run_app(make_app(app, scale=scale, seed=seed), cfg)
    return cfg, base, max(1, base.metrics.makespan // 2)


# ----------------------------------------------------------------------
# the oracle: snapshot+resume == run-through, full matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design", NDP_DESIGNS)
@pytest.mark.parametrize("app", APPS)
def test_snapshot_resume_matches_run_through(app, design):
    cfg, base, at = _mid_run(app, design)
    forked, snap = run_app_with_snapshot(
        make_app(app, scale=0.1, seed=7), cfg, snapshot_at=at
    )
    assert _metrics(forked) == _metrics(base)
    assert snap.meta["cycle"] == at
    assert snap.meta["version"] == 1


def test_snapshot_resume_under_sanitizer(monkeypatch):
    """PR-2 sanitizer + PR-5 auditor wrappers survive the deep clone."""
    monkeypatch.setenv("NDPBRIDGE_SANITIZE", "1")
    cfg, base, at = _mid_run("tree", Design.O)
    forked, snap = run_app_with_snapshot(
        make_app("tree", scale=0.1, seed=7), cfg, snapshot_at=at
    )
    assert _metrics(forked) == _metrics(base)
    assert snap.meta["sanitize"] is True
    # The auditor's conservation counters are part of the manifest.
    assert "auditor" in snap.manifest()


def test_snapshot_is_reforkable():
    """One snapshot, two forks: both finish identically, independently."""
    cfg, base, at = _mid_run("bfs", Design.B)
    app = make_app("bfs", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=at)
    snap = snapshot(system, app)

    results = []
    for _ in range(2):
        fsys, fapp = restore(snap)
        fsys.finish()
        assert fapp.verify()
        results.append(fsys.makespan)
    assert results[0] == results[1] == base.metrics.makespan
    # ...and the paused original still finishes on its own.
    system.finish()
    assert system.makespan == base.metrics.makespan


def test_fork_is_independent_of_original():
    """Running a fork to completion must not advance the original."""
    cfg, _base, at = _mid_run("ll", Design.W)
    app = make_app("ll", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=at)
    paused_events = system.sim.events_processed
    snap = snapshot(system, app)
    fsys, _fapp = restore(snap)
    fsys.finish()
    assert system.sim.events_processed == paused_events
    assert fsys.sim.events_processed > paused_events


def test_manifest_is_deterministic():
    """Two identical runs paused at the same cycle -> same digest."""
    digests = []
    for _ in range(2):
        cfg = tiny_config(Design.O)
        app = make_app("tree", scale=0.1, seed=7)
        system = build_system(cfg)
        app.attach(system)
        app.seed_tasks(system)
        system.start().advance(until=5000)
        digests.append(snapshot(system, app).manifest_digest())
        system.finish()
    assert digests[0] == digests[1]


def test_manifest_encodes_queue_symbolically():
    cfg = tiny_config(Design.O)
    app = make_app("tree", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=5000)
    manifest = snapshot(system, app).manifest()
    assert len(manifest["queue"]) > 0
    # Every queue entry names its owner through the component registry
    # as [time, seq, "owner-path.method"], never a raw object id.
    for _time, _seq, desc in manifest["queue"]:
        assert "0x" not in desc
    system.finish()


def test_unsnapshottable_attribute_raises(tmp_path):
    cfg = tiny_config(Design.B)
    app = make_app("ll", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=1000)
    log = tmp_path / "trace.log"
    system.units[0].trace_fh = log.open("w")
    try:
        with pytest.raises(SnapshotError):
            snapshot(system, app)
    finally:
        system.units[0].trace_fh.close()


def test_verify_inventory_clean_on_live_system():
    """Every live attribute is statically declared (ST001's promise)."""
    from repro.analyze import build_tree_inventory

    inventory = build_tree_inventory([REPO_ROOT / "src"])
    cfg = tiny_config(Design.O)
    app = make_app("tree", scale=0.1, seed=7)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    system.start().advance(until=5000)
    problems = verify_inventory(system, inventory)
    assert problems == [], "\n".join(problems)
    system.finish()


def test_run_app_does_not_import_snapshot_machinery():
    """Zero fast-path cost: a plain run -- and the exec package its pool
    workers import -- never loads the snapshot machinery, the static
    analyzers, or any sharded-engine module."""
    probe = (
        "import sys\n"
        "from repro import Design, make_app, run_app\n"
        "from repro.config import tiny_config\n"
        "import repro.exec\n"
        "run_app(make_app('ll', scale=0.05, seed=1), "
        "tiny_config(Design.B))\n"
        "banned = ('repro.analyze', 'repro.lint', 'repro.race', "
        "'repro.flow', 'repro.state')\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.startswith(banned) or 'shard' in m)\n"
        "assert not loaded, f'plain run imported {loaded}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_runtime_halves_do_not_import_the_analyzers():
    """The message auditor (a sanitized run) and the snapshot driver are
    the runtime halves of simflow and simstate; neither loads a rule."""
    probe = (
        "import sys\n"
        "from repro import Design, make_app, run_app\n"
        "from repro.config import tiny_config\n"
        "from repro.state.snapshot import run_app_with_snapshot\n"
        "run_app(make_app('ll', scale=0.05, seed=1), "
        "tiny_config(Design.B))\n"
        "assert 'repro.flow.auditor' in sys.modules\n"
        "run_app_with_snapshot(make_app('ll', scale=0.05, seed=1), "
        "tiny_config(Design.B), snapshot_at=500)\n"
        "banned = ('repro.analyze', 'repro.lint', 'repro.race', "
        "'repro.flow.rules', 'repro.flow.graph', 'repro.state.rules')\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(banned))\n"
        "assert not loaded, f'runtime halves imported {loaded}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "NDPBRIDGE_SANITIZE": "1",
        },
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# exec integration: snapshot-resume cells
# ----------------------------------------------------------------------
def test_exec_snapshot_cell_matches_plain_cell():
    from repro.exec.runner import CellRequest, execute_cells

    cfg = tiny_config(Design.O)
    plain = CellRequest(
        app="tree", config=cfg, scale=0.1, seed=7, verify=True,
    )
    snap = CellRequest(
        app="tree", config=cfg, scale=0.1, seed=7, verify=True,
        snapshot_at=5000,
    )
    assert plain.key != snap.key  # never alias the plain cache entry
    results = execute_cells([plain, snap], jobs=1, cache=None)
    assert dataclasses.asdict(results[0]) == dataclasses.asdict(results[1])
