"""Model-level ablations of design choices DESIGN.md calls out.

Not a paper figure: these benches quantify simulator design decisions so
their effect on reported numbers is on the record.

* **L1 cache** -- Table I gives every unit a 64 kB L1-D; without it a hot
  element pays a DRAM access per task and serial hot chains dominate.
* **Multi-chunk rounds** -- G_xfer as granularity (several chunks per
  round) vs as a hard per-round rate cap.
* **Host poll interval** -- design C's sensitivity to how often the host
  forwards mailboxes.
"""

from dataclasses import replace

import pytest

from repro.analysis.report import geomean, speedups, text_table
from repro.config import Design

from .common import bench_config, run_matrix

APPS = ["tree", "pr"]


def test_l1_cache_ablation(benchmark):
    cfg = bench_config(Design.B)
    configs = {
        "64kB": cfg,
        "1kB": cfg.replace(
            sram=replace(cfg.sram, l1d_kb=1)  # effectively no reuse
        ),
    }
    results = benchmark.pedantic(lambda: run_matrix(APPS, configs),
                                 rounds=1, iterations=1, warmup_rounds=0)
    speedup = speedups(results, "1kB")
    gain = geomean(speedup[app]["64kB"] for app in APPS)
    rows = [[app, results[app]["1kB"].makespan, results[app]["64kB"].makespan]
            for app in APPS]
    print("\n" + text_table(
        ["app", "1kB L1", "64kB L1"], rows,
        title="Model ablation - per-unit L1 cache (design B)",
    ))
    print(f"geomean speedup from the Table-I L1: {gain:.2f}x")
    assert gain >= 1.0


def test_multichunk_round_ablation(benchmark):
    multi = bench_config(Design.B)
    configs = {
        "multi": multi,
        "single": multi.replace(
            comm=replace(multi.comm, max_chunks_per_round=1)
        ),
    }
    results = benchmark.pedantic(lambda: run_matrix(APPS, configs),
                                 rounds=1, iterations=1, warmup_rounds=0)
    speedup = speedups(results, "single")
    gain = geomean(speedup[app]["multi"] for app in APPS)
    print(f"\nmulti-chunk rounds vs 1-chunk rate cap: {gain:.2f}x")
    assert gain >= 0.95


def test_host_poll_interval_sensitivity(benchmark):
    cfg = bench_config(Design.C)
    configs = {
        str(interval): cfg.replace(comm=replace(
            cfg.comm, host_poll_interval_cycles=interval
        ))
        for interval in (500, 2000, 8000)
    }
    results = benchmark.pedantic(lambda: run_matrix(APPS, configs),
                                 rounds=1, iterations=1, warmup_rounds=0)
    rows = [
        [label, int(geomean(results[app][label].makespan for app in APPS))]
        for label in configs
    ]
    print("\n" + text_table(
        ["interval (cycles)", "geomean makespan"], rows,
        title="Design C sensitivity - host poll interval",
    ))
    # Slower polling cannot make the host path faster.
    assert rows[-1][1] >= rows[0][1] * 0.9
