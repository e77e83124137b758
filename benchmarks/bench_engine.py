"""Engine microbenchmark: the perf trajectory of the simulation kernel.

Unlike the figure benches (which assert the *paper's* shapes), this file
tracks the *repository's own* performance: raw event throughput of
:class:`repro.sim.engine.Simulator`, the wall-clock of a fixed tree-on-O
run, and the cold-vs-warm wall-clock of the Fig.-10 matrix through the
``repro.exec`` cache.  Results append into ``BENCH_engine.json`` at the
repo root so successive PRs can see whether the hot path got faster.

``NDPBRIDGE_BENCH_SMOKE=1`` shrinks everything for CI (seconds, not
minutes); smoke results are recorded under separate keys so they never
overwrite full-scale numbers.
"""

from __future__ import annotations

import os
import time

from repro.config import Design, scaled_config
from repro.exec import ResultCache, default_jobs, run_matrix as exec_run_matrix
from repro.sim import Simulator

from .common import ALL_APPS, record

SMOKE = os.environ.get("NDPBRIDGE_BENCH_SMOKE", "0") not in ("0", "")

#: Fixed engine-bench workload: deterministic, allocation-heavy enough to
#: exercise scheduling, light enough that the callbacks don't dominate.
ENGINE_EVENTS = 30_000 if SMOKE else 300_000
ENGINE_FANOUT = 4

#: The fixed model run tracked across PRs (matches Fig. 10 defaults).
TREE_UNITS = 128
TREE_SCALE = 0.1 if SMOKE else 0.35
TREE_SEED = 17


def _suffix(key: str) -> str:
    return f"{key}_smoke" if SMOKE else key


def _drive_engine(n_events: int) -> Simulator:
    """A self-sustaining event storm of exactly ``n_events`` callbacks."""
    sim = Simulator(max_cycles=10 ** 12)
    budget = [n_events]

    def tick(period: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        sim.schedule(period, lambda: tick(period))

    for i in range(ENGINE_FANOUT):
        sim.schedule(i + 1, lambda p=i + 1: tick(p))
    sim.run()
    return sim


def test_engine_event_throughput(benchmark):
    t0 = time.perf_counter()
    sim = benchmark.pedantic(
        lambda: _drive_engine(ENGINE_EVENTS),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    wall_s = time.perf_counter() - t0
    events_per_s = sim.events_processed / wall_s
    record("BENCH_engine.json", _suffix("engine_microbench"), {
        "events": sim.events_processed,
        "wall_s": round(wall_s, 4),
        "events_per_s": round(events_per_s),
    })
    print(f"\nengine: {sim.events_processed} events in {wall_s:.3f}s "
          f"= {events_per_s:,.0f} events/s")
    assert sim.events_processed >= ENGINE_EVENTS


def test_tree_on_o_wallclock(benchmark):
    """The fixed tree-on-O run: full-model events/sec, cache bypassed."""
    from repro import make_app, run_app

    cfg = scaled_config(TREE_UNITS, Design.O, seed=TREE_SEED)

    def _run():
        app = make_app("tree", scale=TREE_SCALE, seed=TREE_SEED)
        return run_app(app, cfg)

    t0 = time.perf_counter()
    result = benchmark.pedantic(_run, rounds=1, iterations=1,
                                warmup_rounds=0)
    wall_s = time.perf_counter() - t0
    events = result.system.sim.events_processed
    record("BENCH_engine.json", _suffix("tree_on_O"), {
        "units": TREE_UNITS,
        "scale": TREE_SCALE,
        "seed": TREE_SEED,
        "makespan": result.metrics.makespan,
        "events": events,
        "wall_s": round(wall_s, 4),
        "events_per_s": round(events / wall_s),
    })
    print(f"\ntree-on-O: makespan={result.metrics.makespan} "
          f"events={events} wall={wall_s:.3f}s")
    assert result.metrics.makespan > 0


def test_fig10_matrix_cold_vs_warm(benchmark, tmp_path):
    """Cold (simulate everything) vs warm (pure cache hits) wall-clock of
    the Fig.-10 matrix through ``repro.exec`` -- the headline number for
    the parallel + cached harness."""
    apps = ["ll", "tree"] if SMOKE else ALL_APPS
    designs = [Design.C, Design.B, Design.W, Design.O]
    configs = {
        d.value: scaled_config(TREE_UNITS, d, seed=TREE_SEED) for d in designs
    }
    cache = ResultCache(tmp_path / "fig10")
    jobs = default_jobs()

    def _matrix():
        return exec_run_matrix(
            apps, configs, scale=TREE_SCALE, seed=TREE_SEED, jobs=jobs,
            cache=cache,
        )

    t0 = time.perf_counter()
    cold = benchmark.pedantic(_matrix, rounds=1, iterations=1,
                              warmup_rounds=0)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = _matrix()
    warm_s = time.perf_counter() - t0

    record("BENCH_engine.json", _suffix("fig10_matrix"), {
        "apps": len(apps),
        "designs": len(designs),
        "jobs": jobs,
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "warm_speedup": round(cold_s / max(warm_s, 1e-9), 1),
    })
    print(f"\nfig10 matrix: cold={cold_s:.2f}s warm={warm_s:.2f}s "
          f"({cold_s / max(warm_s, 1e-9):.0f}x) with jobs={jobs}")

    # Warm runs must be pure cache hits with identical results.
    assert warm == cold
    assert warm_s < cold_s
