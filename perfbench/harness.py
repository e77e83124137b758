"""Workloads, measurement loop and per-layer report of the benchmark.

Four workloads, each chosen to load a different part of the simulator
(see ``perfbench/README.md`` for the full table):

* ``closed-ll-O``  -- balancer-heavy, bridge-light closed loop;
* ``closed-pr-B``  -- bridge- and message-heavy closed loop, balancer off;
* ``open-tree-O``  -- open-loop request stream through ``runtime.requests``;
* ``sweep-fig10``  -- a Fig. 10 sub-matrix through the ``exec`` pool and
  result cache, one cold pass and one warm pass.

An untraced run repeats the workload until ``--seconds`` is used up and
reports medians.  A traced run does one untraced repetition, then the
same repetition inside a :class:`~perfbench.tracer.Tracer`, checks that
both simulated the same thing bit for bit, and reports the per-layer
breakdown.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import collect_metrics
from repro.apps import make_app
from repro.config import Design, scaled_config
from repro.exec.cache import ResultCache, metrics_to_payload
from repro.exec.runner import CellRequest, execute_cells
from repro.runtime.requests import OpenLoopApp
from repro.runtime.runner import build_system
from repro.workloads.openloop import OpenLoopSpec, TenantSpec

from .summary import check_name, describe, tail_percentile
from .tracer import EXEC_ENTRY_POINTS, MODEL_ENTRY_POINTS, Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Two ranks of 64 units: the smallest system on which the level-2
#: bridge runs.
UNITS = 128

#: Sweep pool size; the reference box has two CPUs.
JOBS = 2

#: At least this many repetitions per untraced run (the first one
#: unsliced and untimed) ...
MIN_REPS = 4
#: ... and at least this many set-ups, timed on their own, until they
#: cover this many seconds or reach the maximum.
MIN_SETUPS = 7
SETUP_SECONDS = 0.5
MAX_SETUPS = 40

#: Sliced repetitions are timed in this many spans of simulated time,
#: with a host-speed probe after each; a sweep pass, which cannot be
#: sliced, gets this many probes before and after it.
SLICES = 40
SWEEP_PROBES = 10

#: The spans of a traced repetition must cover at least this share of
#: its wall time, as the harness's own clock measures it.
MIN_SPAN_COVERAGE = 0.95

#: Size of the host-speed reference chunk, and its host seconds on the
#: reference VM (2 vCPUs, Python 3.11) when undisturbed.  Reported times
#: are rescaled to that speed.
REFERENCE_EVENTS = 6000
REFERENCE_S = 0.006

#: The open-loop stream: ``benchmarks/bench_openloop.py``'s two tenants
#: at its reference rate, lengthened so each tenant keeps at least
#: 1,000 latency samples after warm-up (a p99 needs 10 beyond it).
N_HOT = 2000
N_BURST = 1020
WARMUP = 1000
SKEW_SHIFT_AT = 150_000

#: The Fig. 10 sub-matrix, largest cells first: the pool then ends on
#: short ``tree`` cells, which keeps the cold pass's tail short and its
#: time steady.
SWEEP_APPS = ("ll", "bfs", "pr", "tree")
SWEEP_DESIGNS = ("O", "W", "B", "C")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "closed", "open" or "sweep"
    app: str
    design: str
    scale: float
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("closed-ll-O", "closed", "ll", "O", 0.7,
             "balancer-heavy and bridge-light; engine dispatch is the "
             "largest share of host time"),
    Workload("closed-pr-B", "closed", "pr", "B", 2.0,
             "bridge- and message-heavy with the balancer off; graph "
             "generation gives the largest set-up"),
    Workload("open-tree-O", "open", "tree", "O", 0.35,
             "open-loop arrivals through runtime.requests; the balancer's "
             "endgame guard skips its rounds"),
    Workload("sweep-fig10", "sweep", "", "", 0.06,
             "the only workload through the exec process pool and "
             "result cache"),
)}


def openloop_spec() -> OpenLoopSpec:
    return OpenLoopSpec(
        tenants=(
            TenantSpec(name="hot", n_requests=N_HOT, mean_gap=200.0,
                       skew=((0, 0.6), (SKEW_SHIFT_AT, 1.2))),
            TenantSpec(name="burst", n_requests=N_BURST, mean_gap=400.0,
                       arrival="bursty", burst_gap=80.0, skew=((0, 1.0),)),
        ),
        warmup=WARMUP,
    )


def sweep_cells(scale: float, seed: int) -> List[CellRequest]:
    return [
        CellRequest(app=app, config=scaled_config(UNITS, Design(d), seed=seed),
                    scale=scale, seed=seed)
        for app in SWEEP_APPS for d in SWEEP_DESIGNS
    ]


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float          # host seconds after set-up: run, verify, collect
    cpu_s: float           # host CPU seconds of the same, pool workers included
    run_s: float           # host seconds in the simulation loop alone
    total_s: float         # the whole repetition, digest included
    digests: List[str]     # simulated outputs, one per cell
    attempted: int
    failed: int
    tasks: int             # simulated NDP tasks executed
    sim: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    state: Dict[str, object] = field(default_factory=dict)


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _steps(tracer: Optional[Tracer]) -> Callable[..., object]:
    """``step(layer, name, fn, *args)``: a span when tracing, else a call."""
    if tracer is None:
        return lambda _layer, _name, fn, *args: fn(*args)
    return tracer.call


def _report_failure(what: str) -> None:
    print(f"# FAILED {what}:\n{traceback.format_exc()}", flush=True)


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def _setup(wl: Workload, seed: int, step: Callable[..., object]):
    app = step("workloads", "make_app", make_app, wl.app, wl.scale, seed)
    if wl.kind == "open":
        app = OpenLoopApp(app, openloop_spec())
    config = scaled_config(UNITS, Design(wl.design), seed=seed)
    system = step("runtime", "build_system", build_system, config)
    step("apps", "attach", app.attach, system)
    step("apps", "seed_tasks", app.seed_tasks, system)
    return app, system


def reference_chunk() -> int:
    """A fixed piece of simulator-like work (heap, dict, calls) whose
    host time tracks the host's current speed."""
    heap: list = []
    counts: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(REFERENCE_EVENTS):
        push(heap, ((i * 7919) % 2003, i, int))
        counts[i & 255] = counts.get(i & 255, 0) + 1
    while heap:
        _, seq, fn = pop(heap)
        counts[seq & 255] -= fn()
    return len(counts)


def probe() -> float:
    """Host seconds of one :func:`reference_chunk`.

    The collector is off meanwhile, so the probe never pays for
    scanning the simulation's heap and does not depend on its size.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_chunk()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _run_sliced(system, horizon: int,
                probes: List[float]) -> Tuple[float, float]:
    """Run to the end in :data:`SLICES` equal spans of simulated time,
    appending a :func:`probe` after each.  ``NDPSystem.advance`` pauses
    at a batch boundary, so the run is the same as an unpaused one.
    Returns the host (wall, CPU) seconds the probes took."""
    span = max(1, -(-horizon // SLICES))
    wall = cpu = 0.0
    system.start()
    for k in range(1, SLICES):
        system.advance(k * span)
        w0, c0 = time.perf_counter(), time.process_time()
        probes.append(probe())
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
    system.finish()
    return wall, cpu


def simulate(wl: Workload, seed: int, tracer: Optional[Tracer] = None,
             keep: bool = False, horizon: int = 0,
             probes: Optional[List[float]] = None) -> Rep:
    """Set up, run, verify and collect one closed- or open-loop run.

    The steps are ``run_app``'s serial path (and ``RequestDriver``'s),
    called one by one so set-up is timed apart from the run.  No step
    reads ``NDPBRIDGE_SHARDS``: the engine is always the serial one.
    With ``horizon`` (the run's simulated length) and a ``probes`` list
    the run is sliced and probed; the probes' time is left out.
    """
    clock = time.perf_counter
    step = _steps(tracer)
    t0 = clock()
    app, system = _setup(wl, seed, step)
    t1, c1 = clock(), time.process_time()
    n_req = N_HOT + N_BURST if wl.kind == "open" else 1
    failed = 0
    metrics = None
    run_s = 0.0
    probed = (0.0, 0.0)
    try:
        if horizon and probes is not None:
            probed = _run_sliced(system, horizon, probes)
        else:
            step("runtime", "NDPSystem.run", system.run)
        run_s = clock() - t1 - probed[0]
        if not step("apps", "verify", app.verify):
            raise AssertionError(f"{wl.name}: verify() failed")
        metrics = step("analysis", "collect_metrics", collect_metrics,
                       system, app.name)
    except Exception:  # a failed run is counted, not fatal
        _report_failure(f"{wl.name} seed {seed}")
        failed = 1
    t2, c2 = clock(), time.process_time()
    if wl.kind == "open":
        failed += n_req - min(app.completions, n_req)
    rep = Rep(wall_s=t2 - t1 - probed[0], cpu_s=c2 - c1 - probed[1],
              run_s=run_s, total_s=0.0, digests=["error"], attempted=n_req,
              failed=min(failed, n_req), tasks=system.total_tasks_executed)
    if metrics is not None:
        payload: Dict[str, object] = {
            "makespan": system.makespan,
            "events": system.sim.events_processed,
            "stats": system.stats.as_dict(),
            "metrics": metrics_to_payload(metrics),
        }
        rep.sim["sim_makespan_cycles"] = system.makespan
        if wl.kind == "open":
            samples = app.recorder.samples
            payload["samples"] = samples
            try:
                rep.sim["sim_p50_cycles"] = tail_percentile(samples["hot"], 500)
                rep.sim["sim_p99_cycles"] = tail_percentile(samples["hot"], 990)
                rep.sim["sim_burst_p99_cycles"] = tail_percentile(
                    samples["burst"], 990)
            except (KeyError, ValueError):
                _report_failure(f"{wl.name} seed {seed} latency report")
                rep.failed = max(rep.failed, 1)
        rep.digests = [_digest(payload)]
    if keep:
        rep.state = {"app": app, "system": system, "metrics": metrics}
    rep.total_s = clock() - t0
    return rep


def sweep(wl: Workload, seed: int, workdir: Path,
          tracer: Optional[Tracer] = None, jobs: int = JOBS) -> Rep:
    """Plan the cells, then one cold and one warm pass on a fresh cache."""
    clock = time.perf_counter
    step = _steps(tracer)
    cache_dir = workdir / f"cache-{os.getpid()}-{time.monotonic_ns()}"
    t0 = clock()
    cells = step("exec", "plan_cells", _plan, wl.scale, seed)
    t1 = clock()
    n = len(cells)
    rep = Rep(wall_s=0.0, cpu_s=0.0, run_s=0.0, total_s=0.0,
              digests=["error"] * n, attempted=n, failed=n, tasks=0)
    try:
        cold_cache = ResultCache(cache_dir)
        cpu0 = _cpu_s()
        cold = step("exec", "execute_cells cold", execute_cells, cells,
                    jobs, cold_cache)
        t2 = clock()
        rep.cpu_s = _cpu_s() - cpu0
        warm_cache = ResultCache(cache_dir)
        warm = step("exec", "execute_cells warm", execute_cells, cells,
                    jobs, warm_cache)
        t3 = clock()
        cache_bytes = sum(p.stat().st_size for p in cache_dir.rglob("*.json"))
    except Exception:
        _report_failure(f"{wl.name} seed {seed}")
        rep.wall_s = clock() - t1
        return rep
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    cold_p = [metrics_to_payload(m) for m in cold]
    warm_p = [metrics_to_payload(m) for m in warm]
    rep.wall_s = rep.run_s = t2 - t1
    rep.digests = [_digest(p) for p in cold_p]
    rep.failed = sum(1 for c, w in zip(cold_p, warm_p) if c != w)
    rep.tasks = sum(m.tasks_executed for m in cold)
    lookups = warm_cache.hits + warm_cache.misses
    rep.extra = {
        "exec.cells": n,
        "exec.warm_s": t3 - t2,
        "exec.hit_ratio": warm_cache.hits / lookups if lookups else 0.0,
        "exec.cache_bytes": cache_bytes,
    }
    rep.total_s = clock() - t0
    return rep


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (the pool
    workers, reaped when ``execute_cells`` shuts its pool down)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _plan(scale: float, seed: int) -> List[CellRequest]:
    cells = sweep_cells(scale, seed)
    for cell in cells:
        cell.key  # cache keys are part of planning
    return cells


def run_rep(wl: Workload, seed: int, workdir: Path,
            tracer: Optional[Tracer] = None, keep: bool = False,
            horizon: int = 0, probes: Optional[List[float]] = None) -> Rep:
    if wl.kind == "sweep":
        return sweep(wl, seed, workdir, tracer)
    return simulate(wl, seed, tracer, keep, horizon, probes)


def setup_only(wl: Workload, seed: int) -> float:
    """Host seconds of one set-up, nothing run."""
    step = _steps(None)
    t0 = time.perf_counter()
    if wl.kind == "sweep":
        _plan(wl.scale, seed)
    else:
        _setup(wl, seed, step)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# untraced measurement
# ----------------------------------------------------------------------
def fresh_process_rep(wl: Workload, seed: int,
                      workdir: Path) -> Tuple[float, Rep]:
    """One repetition in a fresh interpreter (``perfbench/peak.py``):
    its peak resident memory in MB, and the repetition for the output
    check.  A child that fails reads 0 MB and fails every operation."""
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    rep = Rep(wall_s=0.0, cpu_s=0.0, run_s=0.0, total_s=0.0,
              digests=["error"], attempted=1, failed=1, tasks=0)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.peak", json.dumps(asdict(wl)),
             str(seed), str(workdir)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        print(f"# FAILED {wl.name} seed {seed}: peak-memory child timed out",
              flush=True)
        return 0.0, rep
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# FAILED {wl.name} seed {seed}: peak-memory child exited "
              f"{proc.returncode}\n{proc.stdout}{proc.stderr}", flush=True)
        return 0.0, rep
    for line in lines[:-1]:  # the child's own failure reports
        print(line)
    out = json.loads(lines[-1])
    rep.digests = out["digests"]
    rep.attempted, rep.failed = out["attempted"], out["failed"]
    return out["peak_rss_mb"], rep


def count_failures(reps: Sequence[Rep]) -> Tuple[int, int]:
    """(attempted, failed): a repetition whose outputs differ from the
    first repetition's fails on each differing cell."""
    attempted = sum(r.attempted for r in reps)
    failed = 0
    first = reps[0].digests
    for rep in reps:
        differ = sum(1 for a, b in zip(first, rep.digests) if a != b)
        failed += min(rep.attempted, max(rep.failed, differ))
    return attempted, failed


def measure(wl: Workload, seed: int, seconds: float, workdir: Path) -> Dict:
    """Repeat ``wl`` for about ``seconds`` and summarise it.

    The first repetition runs straight through and fixes the reference
    outputs and the simulated length.  The second runs in a fresh
    process, which gives the peak memory of one repetition alone; its
    outputs are checked too.  The rest run in slices with a
    :func:`probe` after each (a sweep pass gets probes before and after
    it), and each set-up gets a probe before and after it, so every
    time is rescaled by the host speed measured while it ran.  Times
    are medians over the repetitions and set-ups.
    """
    clock = time.perf_counter
    start = clock()
    gc.collect()
    reps: List[Rep] = [run_rep(wl, seed, workdir)]
    horizon = int(reps[0].sim.get("sim_makespan_cycles", 0))
    peak_mb, fresh = fresh_process_rep(wl, seed, workdir)
    scales: List[float] = []
    while True:
        gc.collect()
        probes = [probe() for _ in range(
            SWEEP_PROBES if wl.kind == "sweep" else 0)]
        reps.append(run_rep(wl, seed, workdir, horizon=horizon, probes=probes))
        probes += [probe() for _ in range(
            SWEEP_PROBES if wl.kind == "sweep" else 1)]
        scales.append(REFERENCE_S / statistics.fmean(probes))
        typical = statistics.median(r.total_s for r in reps)
        if len(reps) >= MIN_REPS and clock() - start + typical > seconds:
            break
    setups: List[float] = []
    raw_setups: List[float] = []
    while len(setups) < MIN_SETUPS or (
            sum(raw_setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
        gc.collect()
        before = probe()
        raw_setups.append(setup_only(wl, seed))
        setups.append(raw_setups[-1] * REFERENCE_S
                      / statistics.fmean((before, probe())))
    attempted, failed = count_failures(reps + [fresh])
    tasks = max(1, reps[0].tasks)
    timed = reps[1:]
    samples = {
        "wall_s": [r.wall_s * k for r, k in zip(timed, scales)],
        "host_us_per_task": [1e6 * r.cpu_s * k / tasks
                             for r, k in zip(timed, scales)],
        "setup_s": setups,
        "peak_rss_mb": [peak_mb],
    }
    return {
        "reps": len(reps) + 1,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: describe(v) for k, v in samples.items()},
        "simulated": dict(reps[0].sim),
        "samples": samples,
        "unscaled": {
            "wall_s": [r.wall_s for r in timed],
            "cpu_s": [r.cpu_s for r in timed],
            "setup_s": raw_setups,
            "speed_scale": scales,
        },
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
#: Per-layer metric -> unit.  A metric of a layer that does not run on
#: a workload reads 0.
PER_LAYER: Dict[str, str] = {check_name(k): v for k, v in (
    ("sim_makespan_cycles", "cycles"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
    ("sim_burst_p99_cycles", "cycles"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.schedule_calls", "count"),
    ("sim.self_s", "s"),
    ("stats.adds", "count"),
    ("stats.self_s", "s"),
    ("ndp.calls", "count"),
    ("ndp.self_s", "s"),
    ("ndp.tasks_executed", "count"),
    ("ndp.l1_hit_ratio", "ratio"),
    ("ndp.busy_cycles", "cycles"),
    ("ndp.mailbox_stalls", "count"),
    ("ndp.wait_frac", "ratio"),
    ("ndp.max_over_avg", "ratio"),
    ("dram.accesses", "count"),
    ("dram.self_s", "s"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.busy_cycles", "cycles"),
    ("dram.bridge_access_frac", "ratio"),
    ("bridge.calls", "count"),
    ("bridge.self_s", "s"),
    ("bridge.l1_rounds", "count"),
    ("bridge.l2_rounds", "count"),
    ("bridge.state_rounds", "count"),
    ("bridge.l1_bytes", "bytes"),
    ("bridge.l2_bytes", "bytes"),
    ("bridge.link_busy_cycles", "cycles"),
    ("bridge.msgs_routed", "count"),
    ("bridge.backup_overflows", "count"),
    ("bridge.wasted_gather_frac", "ratio"),
    ("messages.mailbox_enqueues", "count"),
    ("messages.mailbox_reject_frac", "ratio"),
    ("messages.buffer_pushes", "count"),
    ("messages.buffer_reject_frac", "ratio"),
    ("messages.wire_bytes_calls", "count"),
    ("messages.self_s", "s"),
    ("balance.calls", "count"),
    ("balance.self_s", "s"),
    ("balance.sketch_observes", "count"),
    ("balance.schedules", "count"),
    ("balance.blocks_lent", "count"),
    ("balance.tasks_bounced", "count"),
    ("balance.plan_calls", "count"),
    ("balance.plan_call_frac", "ratio"),
    ("runtime.tracker_calls", "count"),
    ("runtime.self_s", "s"),
    ("runtime.build_s", "s"),
    ("apps.task_calls", "count"),
    ("apps.self_s", "s"),
    ("apps.attach_s", "s"),
    ("apps.seed_s", "s"),
    ("apps.verify_s", "s"),
    ("workloads.make_s", "s"),
    ("requests.injected", "count"),
    ("requests.completed", "count"),
    ("requests.self_s", "s"),
    ("analysis.collect_s", "s"),
    ("exec.cells", "count"),
    ("exec.key_s", "s"),
    ("exec.cache_get_s", "s"),
    ("exec.cache_put_s", "s"),
    ("exec.cache_bytes", "bytes"),
    ("exec.warm_s", "s"),
    ("exec.hit_ratio", "ratio"),
    ("exec.pool_efficiency", "ratio"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)}

_UNIT = r"unit\d+\."
_BANK = r"bank\d+\."
_L1 = r"bridge\d+\."
_L1_LINK = r"bridge\d+\.chip\d+\."
_L2 = r"bridge_l2\."
_L2_LINK = r"bridge_l2\.(?:ch|p2p)\d+\."


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_counts(system, metrics) -> Tuple[Dict[str, float], int]:
    """Simulated per-layer counts of a finished run (no tracing needed),
    and its level-1 state rounds."""
    stats = {k: v for k, v in system.stats.as_dict().items()
             if isinstance(v, int)}

    def total(scope: str, name: str) -> int:
        pattern = re.compile(scope + re.escape(name))
        return sum(v for k, v in stats.items() if pattern.fullmatch(k))

    units = list(system.units)
    hits = sum(u.cache.hits for u in units)
    probes = hits + sum(u.cache.misses for u in units)
    core = total(_BANK, "core_accesses")
    via_bridge = total(_BANK, "bridge_accesses")
    row_hits = total(_BANK, "row_hits")
    l1_rounds = total(_L1, "message_rounds")
    counts = {
        "sim.events": system.sim.events_processed,
        "ndp.tasks_executed": system.total_tasks_executed,
        "ndp.l1_hit_ratio": _ratio(hits, probes),
        "ndp.busy_cycles": sum(u.busy_cycles for u in units),
        "ndp.mailbox_stalls": total(_UNIT, "mailbox_stall_events"),
        "ndp.wait_frac": metrics.wait_fraction,
        "ndp.max_over_avg": _ratio(metrics.max_unit_time,
                                   metrics.avg_unit_time),
        "dram.row_hit_ratio": _ratio(
            row_hits, row_hits + total(_BANK, "row_misses")),
        "dram.busy_cycles": total(_BANK, "busy_cycles"),
        "dram.bridge_access_frac": _ratio(via_bridge, core + via_bridge),
        "bridge.l1_rounds": l1_rounds,
        "bridge.l2_rounds": total(_L2, "message_rounds"),
        "bridge.state_rounds": (total(_L1, "state_rounds")
                                + total(_L2, "state_rounds")),
        "bridge.l1_bytes": total(_L1_LINK, "bytes"),
        "bridge.l2_bytes": total(_L2_LINK, "bytes"),
        "bridge.link_busy_cycles": (total(_L1_LINK, "busy_cycles")
                                    + total(_L2_LINK, "busy_cycles")),
        "bridge.msgs_routed": (total(_L1, "messages_routed_local")
                               + total(_L1, "messages_routed_up")),
        "bridge.backup_overflows": total(_L1, "backup_overflows"),
        "bridge.wasted_gather_frac": _ratio(
            total(_L1, "wasted_gathers"), l1_rounds),
        "balance.schedules": (total(_L1, "schedule_commands")
                              + total(_L2, "schedule_commands")),
        "balance.blocks_lent": total(_UNIT, "blocks_lent"),
        "balance.tasks_bounced": total(_UNIT, "tasks_bounced"),
    }
    return counts, total(_L1, "state_rounds")


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer host time and call counts read from the spans."""
    layers = tracer.layer_totals()
    out: Dict[str, float] = {
        f"{layer}.self_s": layers[layer]["self_s"]
        for layer in ("sim", "stats", "ndp", "dram", "bridge", "messages",
                      "balance", "runtime", "apps", "requests", "bench")
    }
    for layer in ("ndp", "bridge", "balance"):
        out[f"{layer}.calls"] = layers[layer]["calls"]
    enq = tracer.get("messages", "Mailbox.enqueue")
    push = tracer.get("messages", "MessageBuffer.push")
    out.update({
        "sim.schedule_calls": (tracer.get("sim", "Simulator.schedule").calls
                               + tracer.get("sim", "Simulator.schedule_at").calls),
        "stats.adds": tracer.get("stats", "Counter.add").calls,
        "dram.accesses": tracer.get("dram", "DRAMBank.access").calls,
        "messages.mailbox_enqueues": enq.calls,
        "messages.mailbox_reject_frac": _ratio(enq.falses, enq.calls),
        "messages.buffer_pushes": push.calls,
        "messages.buffer_reject_frac": _ratio(push.falses, push.calls),
        "messages.wire_bytes_calls": tracer.get(
            "messages", "Message.wire_bytes").calls,
        "balance.sketch_observes": tracer.get(
            "balance", "HotDataSketch.observe").calls,
        "balance.plan_calls": tracer.get(
            "balance", "SchedulingPolicy.plan").calls,
        "runtime.tracker_calls": tracer.calls_where("runtime", "RunTracker."),
        "runtime.build_s": tracer.get("runtime", "build_system").incl_s,
        "apps.task_calls": tracer.calls_where("apps", "task "),
        "apps.attach_s": tracer.get("apps", "attach").incl_s,
        "apps.seed_s": tracer.get("apps", "seed_tasks").incl_s,
        "apps.verify_s": tracer.get("apps", "verify").incl_s,
        "workloads.make_s": tracer.get("workloads", "make_app").incl_s,
        "analysis.collect_s": tracer.get("analysis", "collect_metrics").incl_s,
        "exec.key_s": tracer.get("exec", "CellRequest.key").incl_s,
        "exec.cache_get_s": tracer.get("exec", "ResultCache.get").incl_s,
        "exec.cache_put_s": tracer.get("exec", "ResultCache.put").incl_s,
        "trace.wall_s": tracer.wall_s,
    })
    return out


def self_time_problems(tracer: Tracer, wall_s: float) -> List[str]:
    """What is wrong with the spans of a repetition that took ``wall_s``
    host seconds by the harness's own clock.

    Every record's self time must lie in ``[0, inclusive time]``: a
    child charged to the wrong parent drives that parent's self time
    below zero.  The self times together must not exceed ``wall_s`` and
    must cover at least :data:`MIN_SPAN_COVERAGE` of it, so the spans
    account for the run rather than a part of it.
    """
    eps = 1e-9
    problems = [
        f"span {rec.layer}:{rec.name} has self time {rec.self_s:.3g} s "
        f"outside [0, {rec.incl_s:.3g}]"
        for rec in tracer.records.values()
        if not -eps <= rec.self_s <= rec.incl_s + eps
    ]
    spans_s = sum(rec.self_s for rec in tracer.records.values())
    if not MIN_SPAN_COVERAGE * wall_s <= spans_s <= wall_s + eps:
        problems.append(f"span self times sum to {spans_s:.4g} s over a "
                        f"{wall_s:.4g} s repetition")
    return problems


def trace(wl: Workload, seed: int, workdir: Path) -> Dict:
    """One untraced and one traced repetition, checked against each other."""
    gc.collect()
    base = run_rep(wl, seed, workdir, keep=True)
    targets = EXEC_ENTRY_POINTS if wl.kind == "sweep" else MODEL_ENTRY_POINTS
    tracer = Tracer(targets)
    gc.collect()
    with tracer:
        traced = run_rep(wl, seed, workdir, tracer=tracer, keep=True)

    problems: List[str] = []
    try:
        tracer.assert_restored()
    except AssertionError as exc:
        problems.append(str(exc))
    if traced.digests != base.digests:
        problems.append("traced simulated outputs differ from untraced")
    problems += self_time_problems(tracer, traced.total_s)

    layer = {name: 0.0 for name in PER_LAYER}
    layer.update(base.sim)
    layer.update(span_metrics(tracer))
    layer["trace.overhead_ratio"] = _ratio(traced.total_s, base.total_s)
    if wl.kind == "sweep":
        layer.update(base.extra)
        layer["exec.pool_efficiency"] = _ratio(
            serial_cell_seconds(wl, seed, workdir), JOBS * base.wall_s)
    elif base.state.get("metrics") is not None:
        system = base.state["system"]
        counts, l1_state_rounds = model_counts(system, base.state["metrics"])
        layer.update(counts)
        layer["sim.events_per_s"] = _ratio(system.sim.events_processed,
                                           base.run_s)
        layer["balance.plan_call_frac"] = _ratio(
            layer["balance.plan_calls"], l1_state_rounds)
        if wl.kind == "open":
            app = base.state["app"]
            layer["requests.injected"] = app._next
            layer["requests.completed"] = app.completions
    attempted, failed = count_failures([base, traced])
    failed += len(problems)
    for problem in problems:
        print(f"# ORACLE FAILED: {problem}", flush=True)
    spans = sorted((r.as_dict() for r in tracer.records.values()),
                   key=lambda r: -r["self_s"])
    return {
        "attempted": attempted + 1,
        "failed": min(failed, attempted + 1),
        "per_layer": {k: layer[k] for k in PER_LAYER},
        "spans": spans,
        "oracle_ok": not problems,
    }


def serial_cell_seconds(wl: Workload, seed: int, workdir: Path) -> float:
    """Summed per-cell seconds of a serial cold pass (exec spans only)."""
    cache_dir = workdir / f"serial-{os.getpid()}-{time.monotonic_ns()}"
    tracer = Tracer(targets=(), globals_=(("repro.exec.runner", "_execute_cell"),))
    try:
        with tracer:
            execute_cells(sweep_cells(wl.scale, seed), 1, ResultCache(cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    tracer.assert_restored()
    return tracer.get("exec", "_execute_cell").incl_s


__all__ = [
    "PER_LAYER", "WORKLOADS", "Workload",
    "measure", "trace",
]
