"""Smoke driver: run every (design, app) pair at small scale with a
wall-clock watchdog per run, printing progress unbuffered."""

import itertools
import os
import sys
import time

from repro import Design, make_app, small_config, tiny_config
from repro.config import default_config
from repro.runtime.runner import build_system

CONFIGS = {
    "tiny": tiny_config,
    "small": small_config,
    "default": default_config,
}

DESIGNS = [Design.C, Design.B, Design.W, Design.O, Design.R, Design.H]
APPS = ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc"]

#: Simulated cycles between two looks at the wall-clock watchdog.
SLICE_CYCLES = 100_000


def run_one(design, name, scale=0.05, budget_s=30):
    cfg = CONFIGS[os.environ.get("SMOKE_CONFIG", "tiny")](design)
    app = make_app(name, scale=scale)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    if hasattr(system, "fabric"):
        system.fabric.start()
    system.tracker.check_progress()
    t0 = time.time()
    sim = system.sim
    while not system.tracker.finished and sim.pending_events:
        sim.run(until=sim.now + SLICE_CYCLES)
        if time.time() - t0 > budget_s:
            tr = system.tracker
            return (
                f"STUCK now={system.sim.now} done={tr.total_completed}/"
                f"{tr.total_created} tmsg={tr.task_messages_in_flight} "
                f"dmsg={tr.data_messages_in_flight} epoch={tr.epoch}"
            )
    if not system.tracker.finished:
        return "DRAINED-UNFINISHED"
    ok = app.verify()
    return (
        f"makespan={system.makespan} tasks={system.total_tasks_executed} "
        f"verify={ok} ({time.time() - t0:.1f}s)"
    )


def main():
    designs = DESIGNS
    apps = APPS
    if len(sys.argv) > 1:
        designs = [Design(sys.argv[1])]
    if len(sys.argv) > 2:
        apps = sys.argv[2].split(",")
    scale = float(sys.argv[3]) if len(sys.argv) > 3 else 0.05
    for design, name in itertools.product(designs, apps):
        try:
            result = run_one(design, name, scale=scale)
        except Exception as exc:  # noqa: BLE001 - smoke reporting
            result = f"FAIL {type(exc).__name__}: {exc}"
        print(f"{design.value:>2} {name:>5}: {result}", flush=True)


if __name__ == "__main__":
    main()
