"""Smoke driver: run every (design, app) pair at small scale through the
end-of-run checks, with a wall-clock budget per run, printing progress
unbuffered.  Exits 1 when any pair fails, is stuck or verifies wrong.

    PYTHONPATH=src python scripts/smoke.py [DESIGN [APP,APP,... [SCALE]]]

``SMOKE_CONFIG`` picks the preset: ``tiny`` (default), ``small`` or
``default``.
"""

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

#: Simulated cycles between two looks at the wall-clock budget.
SLICE_CYCLES = 100_000


def run_one(design, name, scale=0.05, budget_s=30):
    """``(passed, report)`` for one pair.  The stall watchdog cannot see
    a livelock, so the NDP designs advance in slices under a wall-clock
    budget before ``finish()`` makes the end-of-run checks."""
    cfg = CONFIGS[os.environ.get("SMOKE_CONFIG", "tiny")](design)
    app = make_app(name, scale=scale)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    t0 = time.time()
    if design is Design.H:
        system.run()
    else:
        system.start()
        sim, tracker = system.sim, system.tracker
        while not tracker.finished and sim.pending_events:
            system.advance(sim.now + SLICE_CYCLES)
            if time.time() - t0 > budget_s:
                return False, (
                    f"STUCK now={sim.now} done={tracker.total_completed}/"
                    f"{tracker.total_created} "
                    f"tmsg={tracker.task_messages_in_flight} "
                    f"dmsg={tracker.data_messages_in_flight} "
                    f"epoch={tracker.epoch}"
                )
        system.finish()
    ok = app.verify()
    return ok, (
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
    failed = 0
    for design, name in itertools.product(designs, apps):
        try:
            passed, report = run_one(design, name, scale=scale)
        except Exception as exc:  # noqa: BLE001 - smoke reporting
            passed, report = False, f"FAIL {type(exc).__name__}: {exc}"
        failed += not passed
        print(f"{design.value:>2} {name:>5}: {report}", flush=True)
    print(f"smoke: {failed} of {len(designs) * len(apps)} pairs failed",
          flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
