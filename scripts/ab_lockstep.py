#!/usr/bin/env python
"""Size a change against its base by running both in lockstep.

Each repetition starts one fresh child process per tree.  The child puts
that tree's ``src/`` and root first on its path, imports the tree's own
``perfbench.harness`` (read-only: no bytecode is written into either
tree) and builds the workload with ``harness._setup``.  The parent then
steps both children through the same ``NDPSystem.advance`` slices of
simulated time, alternating which child goes first, and sums the
``time.process_time()`` each child spends in ``start``, the slices and
``finish``.  Both children are pinned to the same CPU where the OS
allows (``os.sched_setaffinity``), so they never run at once and share
one core's caches.

A process's memory layout alone moves its speed by about 2% either way,
which is why every repetition gets fresh processes.  An A/A run (the
same tree as base and change, 10 repetitions of closed-ll-O on a 2-vCPU
VM) read a median ratio of 0.996 with quartiles 0.979 and 1.006.  The
tool sizes a change; it does not replace perfbench's protocol of
alternating 25 s runs.

It checks that both trees simulate the same thing: every child's digest
of (makespan, events processed, stats) must equal the first one's, and
every run must verify.  It prints each repetition's host microseconds
per task on both trees, the median change/base ratio with its quartiles
and the repetitions the change won, and exits 1 if any output differed.

Usage:
    python scripts/ab_lockstep.py --base DIR --change DIR
        [--workload closed-ll-O] [--seed 17] [--reps 10] [--slices 40]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: perfbench workloads that run as one sliceable system (a sweep runs
#: through a process pool and cannot be stepped).
WORKLOADS = ("closed-ll-O", "closed-pr-B", "open-tree-O")


# ----------------------------------------------------------------------
# child: one tree, one repetition
# ----------------------------------------------------------------------
def _reply(payload: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def child(tree: Path, workload: str, seed: int, cpu: Optional[int]) -> int:
    """Build the workload from ``tree``, then serve the parent's steps:
    ``{"until": T}`` advances to cycle T, ``{"finish": true}`` drains
    the run and reports its outputs.  Each reply carries the CPU
    seconds the step took."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree)]
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
    from perfbench import harness

    app, system = harness._setup(
        harness.WORKLOADS[workload], seed,
        lambda _layer, _name, fn, *args: fn(*args),
    )
    gc.collect()
    c0 = time.process_time()
    system.start()
    _reply({"cpu": time.process_time() - c0})
    for line in sys.stdin:
        step = json.loads(line)
        c0 = time.process_time()
        if "until" in step:
            system.advance(step["until"])
            _reply({"cpu": time.process_time() - c0})
            continue
        system.finish()
        cpu_s = time.process_time() - c0
        outputs = [system.makespan, system.sim.events_processed,
                   system.stats.as_dict()]
        blob = json.dumps(outputs, sort_keys=True, default=repr)
        _reply({
            "cpu": cpu_s,
            "digest": hashlib.sha256(blob.encode()).hexdigest(),
            "makespan": system.makespan,
            "events": system.sim.events_processed,
            "tasks": system.total_tasks_executed,
            "verified": bool(app.verify()),
        })
        return 0
    return 1


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------
class Child:
    """One child process, driven one JSON line at a time."""

    def __init__(self, tree: Path, args: argparse.Namespace,
                 cpu: Optional[int]) -> None:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--child", str(tree), "--workload", args.workload,
               "--seed", str(args.seed)]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        # The child finds the program through the tree alone.
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONPATH" and not k.startswith("NDPBRIDGE_")}
        self.tree = tree
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        self.cpu_s = 0.0
        self.result: Dict[str, object] = {}

    def read(self) -> Dict[str, object]:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(
                f"child for {self.tree} exited {self.proc.returncode}"
            )
        reply = json.loads(line)
        self.cpu_s += reply["cpu"]
        return reply

    def send(self, step: Dict[str, object]) -> None:
        self.proc.stdin.write(json.dumps(step) + "\n")
        self.proc.stdin.flush()

    def step(self, step: Dict[str, object]) -> Dict[str, object]:
        self.send(step)
        return self.read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _pinned_cpu() -> Optional[int]:
    """One CPU this process may run on, if the OS lets it pin."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def _calibrate(tree: Path, args: argparse.Namespace,
               cpu: Optional[int]) -> Dict[str, object]:
    """One unsliced run of ``tree``: its outputs fix the slices."""
    kid = Child(tree, args, cpu)
    try:
        kid.read()
        return kid.step({"finish": True})
    finally:
        kid.close()


def repetition(rep: int, trees: List[Path], untils: List[int],
               args: argparse.Namespace,
               cpu: Optional[int]) -> List[Child]:
    """Both trees through the same slices; the first to step alternates
    from slice to slice, starting on a different tree each repetition."""
    kids = [Child(tree, args, cpu) for tree in trees]
    try:
        for kid in kids:
            kid.read()
        steps: List[Dict[str, object]] = [{"until": t} for t in untils]
        steps.append({"finish": True})
        for k, step in enumerate(steps):
            order = kids if (rep + k) % 2 == 0 else kids[::-1]
            for kid in order:
                reply = kid.step(step)
                if "digest" in reply:
                    kid.result = reply
    finally:
        for kid in kids:
            kid.close()
    return kids


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--base", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", default="closed-ll-O",
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--slices", type=int, default=40)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        return child(args.child.resolve(), args.workload, args.seed,
                     args.cpu)
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    if args.reps < 1 or args.slices < 1:
        parser.error("--reps and --slices must be at least 1")
    trees = [args.base.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "perfbench" / "harness.py").is_file():
            parser.error(f"{tree} has no perfbench/harness.py")

    cpu = _pinned_cpu()
    print(f"ab_lockstep: {args.workload} seed {args.seed}, {args.reps} "
          f"repetitions x {args.slices} slices, "
          + ("unpinned" if cpu is None else f"pinned to CPU {cpu}"))
    print(f"  base   {trees[0]}\n  change {trees[1]}")
    ref = _calibrate(trees[0], args, cpu)
    span = max(1, -(-int(ref["makespan"]) // args.slices))
    untils = [k * span for k in range(1, args.slices)]

    ratios: List[float] = []
    mismatches = 0
    print(f"{'rep':>4} {'base us/task':>13} {'change us/task':>15} "
          f"{'ratio':>7}")
    for rep in range(args.reps):
        base, change = repetition(rep, trees, untils, args, cpu)
        for kid in (base, change):
            if (kid.result.get("digest") != ref["digest"]
                    or not kid.result.get("verified")):
                mismatches += 1
                print(f"# OUTPUT DIFFERS: {kid.tree} rep {rep + 1}: "
                      f"{kid.result}")
        tasks = max(1, int(ref["tasks"]))
        base_us = base.cpu_s / tasks * 1e6
        change_us = change.cpu_s / tasks * 1e6
        ratios.append(change_us / base_us)
        print(f"{rep + 1:>4} {base_us:>13.3f} {change_us:>15.3f} "
              f"{ratios[-1]:>7.3f}")

    median = statistics.median(ratios)
    quartiles = (statistics.quantiles(ratios, n=4, method="inclusive")
                 if len(ratios) > 1 else [median] * 3)
    wins = sum(1 for r in ratios if r < 1.0)
    print(f"outputs: {'equal' if not mismatches else 'DIFFER'} "
          f"(makespan {ref['makespan']}, events {ref['events']}, "
          f"tasks {ref['tasks']}, digest {str(ref['digest'])[:8]})")
    print(f"change/base: median {median:.3f} (quartiles {quartiles[0]:.3f}, "
          f"{quartiles[2]:.3f}); change faster in {wins}/{len(ratios)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
