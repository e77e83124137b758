"""The simulator's benchmark: one command, four workloads.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload closed-ll-O --seed 17 --seconds 25
    python3 perfbench/run.py --workload open-tree-O --trace 1

Prints every metric by name and unit, checks every run's output, and
ends each workload with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics untraced (``--trace 0``),
the per-layer metrics from a traced run (``--trace 1``).  With every
workload, a last line ``{"correct", "attempted", "failed", "workloads"}``
maps each workload to its line.  ``--seconds`` defaults to the
``run_seconds`` of ``BENCHMARK.json``.  A full report, the
per-entry-point spans of a traced run included, is written to
``.perfbench-out/``.  Run it from the root of a checkout; it reads the
program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment knobs that could change what is measured.  Every
#: ``NDPBRIDGE_*`` variable is cleared before the program is imported:
#: the sanitizer, sharding, pool size, result cache and the size knobs
#: of the ``benchmarks/`` harness.
KNOB_PREFIX = "NDPBRIDGE_"

DEFAULT_SEED = 17

#: End-to-end metric -> unit, printed by ``--trace 0``.
END_TO_END = {
    "wall_s": "s",
    "host_us_per_task": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The ones registered in BENCHMARK.json and put in the result line.
#: ``wall_s`` is left out: the seed sets how much work ``closed-ll-O``
#: does, so its spread over seeds exceeds any usable bound.
BOUNDED = ("host_us_per_task", "setup_s", "peak_rss_mb")


def pin_environment() -> list:
    cleared = sorted(k for k in os.environ if k.startswith(KNOB_PREFIX))
    for key in cleared:
        del os.environ[key]
    return cleared


def registered_run_seconds() -> float:
    """``run_seconds`` from ``BENCHMARK.json``, the one place it is set."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def git_commit() -> str:
    """HEAD's commit read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program():
    """Import the checkout's ``repro`` package, or None when absent."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return None
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return None
    return harness


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_untraced(name: str, seed: int, res: dict) -> None:
    print(f"== {name}  seed={seed}  untraced  repetitions={res['reps']}")
    for metric, d in res["end_to_end"].items():
        unit = END_TO_END[metric]
        print(f"  {metric:<22} {_fmt(d['median']):>14} {unit:<6} "
              f"spread={d['spread']:.4f} n={d['n']}")
    for metric, value in res["simulated"].items():
        unit = "s" if metric.endswith("_s") else "cycles"
        print(f"  {metric:<22} {_fmt(value):>14} {unit:<6} "
              f"(deterministic per seed)")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<22} {_fmt(frac):>14} {'ratio':<6} "
          f"({res['failed']}/{res['attempted']})")


def print_traced(name: str, seed: int, res: dict, units: dict) -> None:
    print(f"== {name}  seed={seed}  traced  oracle="
          f"{'ok' if res['oracle_ok'] else 'FAILED'}")
    for metric, value in res["per_layer"].items():
        print(f"  {metric:<28} {_fmt(value):>14} {units[metric]}")
    print("  top spans by self time:")
    for span in res["spans"][:12]:
        print(f"    {span['layer']:<9} {span['name']:<40} "
              f"calls={span['calls']:<9} self={span['self_s']:.4f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload, untraced "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = pin_environment()
    harness = import_program()
    if harness is None:
        return 2
    if args.seconds is None:
        args.seconds = registered_run_seconds()
    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)} or all")
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]

    stamp = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": args.seed,
        "cleared_env": cleared,
    }
    print(f"# stamp {json.dumps(stamp)}", flush=True)
    workdir = ROOT / ".perfbench-out"
    workdir.mkdir(exist_ok=True)

    results = {}
    for name in names:
        wl = harness.WORKLOADS[name]
        if args.trace:
            res = harness.trace(wl, args.seed, workdir)
            print_traced(name, args.seed, res, harness.PER_LAYER)
            correct = res["oracle_ok"]
            metrics = {metric: {"value": value,
                                "unit": harness.PER_LAYER[metric]}
                       for metric, value in res["per_layer"].items()}
        else:
            res = harness.measure(wl, args.seed, args.seconds, workdir)
            print_untraced(name, args.seed, res)
            correct = True
            metrics = {metric: {"value": res["end_to_end"][metric]["median"],
                                "unit": END_TO_END[metric]}
                       for metric in BOUNDED}
        report = workdir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps(
            {"stamp": stamp, "workload": name, **res}, indent=1) + "\n")
        results[name] = {
            "correct": bool(correct and res["failed"] == 0),
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }
        print(json.dumps(results[name]), flush=True)

    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
