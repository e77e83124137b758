#!/usr/bin/env python
"""cProfile hook for the simulation hot path.

Runs the fixed tree-on-O workload (the same one ``benchmarks/
bench_engine.py`` times), profiling ``NDPSystem.run`` alone: the system
is built, attached and seeded before the profiler starts, and the result
is verified after it stops.  With ``--open`` it runs instead the
open-loop request stream of ``perfbench``'s ``open-tree-O`` workload,
built from ``perfbench/harness.py`` (tree on O at 128 units, scale 0.35,
two tenants), which it only reads.  With ``--setup WORKLOAD`` it
profiles no run but one untraced set-up of that ``perfbench`` workload
(``harness._setup``: make the app, build the system, attach, seed),
made after the unprofiled set-ups it times have warmed the process.

Prints the calls per task two ways -- every call cProfile counts, and
the Python-function calls alone (builtins such as ``next()`` and
``len()`` left out) -- and the top functions by cumulative time, and
records both rates and the profiled wall-clock into
``BENCH_engine.json`` under the ``profile_tree_on_O`` key, or
``profile_open_tree_O`` with ``--open``.  ``--setup`` prints and records
the calls per set-up instead, with the best unprofiled set-up time,
under ``profile_setup_<WORKLOAD>``.

Usage:
    PYTHONPATH=src python scripts/profile_engine.py
        [--smoke | --open | --setup WORKLOAD]
        [--units N] [--scale F] [--seed N]
        [--sort cumulative|tottime] [--top N] [--dump profile.prof]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))


#: perfbench workloads whose set-up ``--setup`` profiles: the three
#: that simulate (a sweep's set-up is cell-key planning, not a build).
SETUP_WORKLOADS = ("closed-ll-O", "closed-pr-B", "open-tree-O")

#: Unprofiled set-ups timed for ``--setup``; the best is reported.
SETUP_REPEATS = 5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--units", type=int, default=128)
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument("--seed", type=int, default=17)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="tiny run for CI (scale 0.1)")
    mode.add_argument("--open", action="store_true",
                      help="perfbench's open-tree-O request stream "
                           "(ignores --units and --scale)")
    mode.add_argument("--setup", metavar="WORKLOAD", choices=SETUP_WORKLOADS,
                      help="profile one set-up of this perfbench workload "
                           "instead of a run (ignores --units and --scale)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime"])
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--dump", default=None,
                        help="also write raw stats to this .prof file")
    args = parser.parse_args()
    if args.smoke:
        args.scale = 0.1
    if args.setup:
        return _profile_setup(args)

    from benchmarks.common import record
    from repro.runtime.runner import VerificationError

    name, app, system = (_open_loop if args.open else _closed_loop)(args)

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    system.run()
    profiler.disable()
    wall_s = time.perf_counter() - t0
    if not app.verify():
        raise VerificationError(f"{name}: wrong result")
    events = system.sim.events_processed
    tasks = system.total_tasks_executed
    calls, py_calls = _call_counts(profiler)
    calls_per_task = calls / tasks
    py_calls_per_task = py_calls / tasks

    print(f"{name}: units={args.units} scale={args.scale} "
          f"seed={args.seed}")
    print(f"makespan={system.makespan} events={events} tasks={tasks} "
          f"wall={wall_s:.3f}s ({events / wall_s:,.0f} events/s under "
          f"profiler)")
    print(f"NDPSystem.run: {calls:,} calls, "
          f"{calls_per_task:.1f} per task; {py_calls:,} Python-function "
          f"calls, {py_calls_per_task:.1f} per task\n")
    _print_top(profiler, args)

    if args.open:
        key = "profile_open_tree_O"
    elif args.smoke:
        key = "profile_tree_on_O_smoke"
    else:
        key = "profile_tree_on_O"
    record("BENCH_engine.json", key, {
        "units": args.units,
        "scale": args.scale,
        "seed": args.seed,
        "makespan": system.makespan,
        "events": events,
        "tasks": tasks,
        "calls_per_task": round(calls_per_task, 1),
        "py_calls_per_task": round(py_calls_per_task, 1),
        "wall_s_profiled": round(wall_s, 4),
        "events_per_s_profiled": round(events / wall_s),
    })
    return 0


def _profile_setup(args) -> int:
    """Profile one of perfbench's untraced set-ups of ``args.setup``.

    The unprofiled set-ups come first, so the profiled one runs in a
    warm process, and each starts after a full collection, as
    perfbench's timed set-ups do."""
    from benchmarks.common import record
    from perfbench import harness

    wl = harness.WORKLOADS[args.setup]
    step = harness._steps(None)
    best_s = float("inf")
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        harness._setup(wl, args.seed, step)
        best_s = min(best_s, time.perf_counter() - t0)

    gc.collect()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    harness._setup(wl, args.seed, step)
    profiler.disable()
    wall_s = time.perf_counter() - t0
    calls, py_calls = _call_counts(profiler)

    print(f"{wl.name} set-up: units={harness.UNITS} scale={wl.scale} "
          f"seed={args.seed}")
    print(f"best of {SETUP_REPEATS} unprofiled: {best_s * 1e3:.1f} ms; "
          f"profiled: {wall_s * 1e3:.1f} ms")
    print(f"set-up: {calls:,} calls; {py_calls:,} Python-function calls\n")
    _print_top(profiler, args)

    record("BENCH_engine.json", f"profile_setup_{wl.name}", {
        "units": harness.UNITS,
        "scale": wl.scale,
        "seed": args.seed,
        "calls": calls,
        "py_calls": py_calls,
        "setup_s_best": round(best_s, 4),
        "wall_s_profiled": round(wall_s, 4),
    })
    return 0


def _call_counts(profiler: cProfile.Profile):
    """(all calls, Python-function calls) the profiler recorded.

    Counted from the raw entries, one per code object: pstats keys them
    by (file, line, name), under which the generated __init__ of every
    dataclass is the same "<string>:2(__init__)", so its totals keep
    only one of them.  A builtin's entry names it by a string."""
    entries = profiler.getstats()
    calls = sum(e.callcount for e in entries)
    py_calls = sum(e.callcount for e in entries if not isinstance(e.code, str))
    return calls, py_calls


def _print_top(profiler: cProfile.Profile, args) -> None:
    """The top ``args.top`` functions, and the raw dump if asked for."""
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue())
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw profile written to {args.dump}")


def _closed_loop(args):
    """Tree on O, built, attached and seeded as ``bench_engine.py``."""
    from repro import Design, make_app
    from repro.config import scaled_config
    from repro.runtime.runner import build_system

    cfg = scaled_config(args.units, Design.O, seed=args.seed)
    app = make_app("tree", scale=args.scale, seed=args.seed)
    system = build_system(cfg)
    app.attach(system)
    app.seed_tasks(system)
    return "tree-on-O", app, system


def _open_loop(args):
    """perfbench's open-tree-O stream, set up by the harness's own
    untraced set-up step, the one ``harness.simulate`` makes."""
    from perfbench import harness

    wl = harness.WORKLOADS["open-tree-O"]
    args.units, args.scale = harness.UNITS, wl.scale
    app, system = harness._setup(wl, args.seed, harness._steps(None))
    return "open-tree-O", app, system


if __name__ == "__main__":
    raise SystemExit(main())
