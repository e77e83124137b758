"""Extension experiment: data partitioning schemes (the paper's future
work -- "better data partitioning schemes" across ranks).

Compares the default blocked layout (contiguous vertex ranges per bank)
against a striped layout (round-robin vertices) on the graph workloads.
Striping scatters the power-law hubs across banks -- better *static*
balance -- at the cost of destroying neighborhood locality (every edge
crosses banks).  The interesting question is how much dynamic balancing
(O) narrows the gap from the layout choice.
"""

import pytest

from repro.analysis.report import text_table
from repro.apps import BfsApp, PageRankApp
from repro.config import Design
from repro.runtime.runner import run_app

from .common import BENCH_SCALE, BENCH_SEED, bench_config

LAYOUTS = ["blocked", "striped"]
DESIGNS = [Design.B, Design.O]


def _apps(layout):
    n = max(256, int(4096 * BENCH_SCALE))
    n = 1 << (n - 1).bit_length()
    return {
        "bfs": BfsApp(n_vertices=n, seed=BENCH_SEED, layout=layout),
        "pr": PageRankApp(n_vertices=n // 4, iterations=3,
                          seed=BENCH_SEED, layout=layout),
    }


def _run():
    results = {}
    for layout in LAYOUTS:
        for design in DESIGNS:
            for name, app in _apps(layout).items():
                cfg = bench_config(design)
                results[(layout, design.value, name)] = run_app(
                    app, cfg
                ).metrics
    return results


def test_partitioning_schemes(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    rows = []
    for name in ("bfs", "pr"):
        for layout in LAYOUTS:
            rows.append([
                name, layout,
                results[(layout, "B", name)].makespan,
                results[(layout, "O", name)].makespan,
                results[(layout, "B", name)].makespan
                / results[(layout, "O", name)].makespan,
            ])
    print("\n" + text_table(
        ["app", "layout", "B cycles", "O cycles", "O gain"], rows,
        title="Partitioning schemes (future-work extension)",
    ))

    # Both layouts must produce correct results (run_app verifies) and
    # the balancer must never catastrophically regress either layout.
    for name in ("bfs", "pr"):
        for layout in LAYOUTS:
            b = results[(layout, "B", name)].makespan
            o = results[(layout, "O", name)].makespan
            assert o <= 1.5 * b
