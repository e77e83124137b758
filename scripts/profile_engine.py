#!/usr/bin/env python
"""cProfile hook for the simulation hot path.

Runs the fixed tree-on-O workload (the same one ``benchmarks/
bench_engine.py`` times) under cProfile, prints the top functions by
cumulative time, and records wall-clock + events/sec into
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
    from repro import Design, make_app, run_app
    from repro.config import scaled_config

    cfg = scaled_config(args.units, Design.O, seed=args.seed)

    profiler = cProfile.Profile()
    app = make_app("tree", scale=args.scale, seed=args.seed)
    t0 = time.perf_counter()
    profiler.enable()
    result = run_app(app, cfg)
    profiler.disable()
    wall_s = time.perf_counter() - t0
    events = result.system.sim.events_processed

    print(f"tree-on-O: units={args.units} scale={args.scale} "
          f"seed={args.seed}")
    print(f"makespan={result.metrics.makespan} events={events} "
          f"wall={wall_s:.3f}s ({events / wall_s:,.0f} events/s under "
          f"profiler)\n")

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
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
        "makespan": result.metrics.makespan,
        "events": events,
        "wall_s_profiled": round(wall_s, 4),
        "events_per_s_profiled": round(events / wall_s),
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
