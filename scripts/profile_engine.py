#!/usr/bin/env python
"""cProfile hook for the simulation hot path.

Runs the fixed tree-on-O workload (the same one ``benchmarks/
bench_engine.py`` times), profiling ``NDPSystem.run`` alone: the system
is built, attached and seeded before the profiler starts, and the result
is verified after it stops.  Prints the Python calls per task (cProfile's
total call count divided by the tasks executed) and the top functions by
cumulative time, and records both rates and the profiled wall-clock into
``BENCH_engine.json`` under the ``profile_tree_on_O`` key.

Usage:
    PYTHONPATH=src python scripts/profile_engine.py [--smoke]
        [--units N] [--scale F]
        [--sort cumulative|tottime] [--top N] [--dump profile.prof]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--units", type=int, default=128)
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for CI (scale 0.1)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime"])
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--dump", default=None,
                        help="also write raw stats to this .prof file")
    args = parser.parse_args()
    if args.smoke:
        args.scale = 0.1

    from benchmarks.common import record
    from repro import Design, make_app
    from repro.config import scaled_config
    from repro.runtime.runner import VerificationError, build_system

    cfg = scaled_config(args.units, Design.O, seed=args.seed)
    app = make_app("tree", scale=args.scale, seed=args.seed)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    system.run()
    profiler.disable()
    wall_s = time.perf_counter() - t0
    if not app.verify():
        raise VerificationError("tree on design O: wrong result")
    events = system.sim.events_processed
    tasks = system.total_tasks_executed

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    calls_per_task = stats.total_calls / tasks

    print(f"tree-on-O: units={args.units} scale={args.scale} "
          f"seed={args.seed}")
    print(f"makespan={system.makespan} events={events} tasks={tasks} "
          f"wall={wall_s:.3f}s ({events / wall_s:,.0f} events/s under "
          f"profiler)")
    print(f"NDPSystem.run: {stats.total_calls:,} Python calls, "
          f"{calls_per_task:.1f} per task\n")

    stats.sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue())

    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw profile written to {args.dump}")

    key = "profile_tree_on_O_smoke" if args.smoke else "profile_tree_on_O"
    record("BENCH_engine.json", key, {
        "units": args.units,
        "scale": args.scale,
        "seed": args.seed,
        "makespan": system.makespan,
        "events": events,
        "tasks": tasks,
        "calls_per_task": round(calls_per_task, 1),
        "wall_s_profiled": round(wall_s, 4),
        "events_per_s_profiled": round(events / wall_s),
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
