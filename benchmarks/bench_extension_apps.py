"""Extension applications under the design matrix.

Four workloads beyond the paper's evaluated eight, built on the same
public API: the paper's own Section-IV stencil illustration, a
Zipf-skewed histogram (the minimal hub-contention pattern), a two-phase
hash join (the databases the intro motivates), and triangle counting
(graph mining with fat adjacency payloads).  Together they bracket the
design space: communication-regular (stencil), serial-hot-element
(histogram), bulk-synchronous two-phase (join), and payload-heavy (tc).
"""

import pytest

from repro.analysis.report import speedups, text_table
from repro.config import Design

from .common import bench_config, run_matrix

DESIGNS = [Design.C, Design.B, Design.W, Design.O]
APPS = ["stencil", "hist", "join", "tc"]


def _run():
    return run_matrix(APPS, {d.value: bench_config(d) for d in DESIGNS})


def test_extension_apps(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    speedup = speedups(results, "C")
    rows = [
        [app] + [speedup[app][d.value] for d in DESIGNS] for app in APPS
    ]
    print("\n" + text_table(
        ["app", "C", "B", "W", "O"], rows,
        title="Extension apps - speedup over design C",
    ))

    # Stencil communicates across every partition boundary each step, and
    # triangle counting ships adjacency payloads everywhere: the bridges
    # must beat host forwarding on both.
    assert speedup["stencil"]["B"] > 1.0
    assert speedup["tc"]["B"] > 1.0
    # The two-phase join is communication-free under static assignment
    # (tuples are seeded at their bucket's home): B == C.
    assert abs(speedup["join"]["B"] - 1.0) < 0.05
    # Histogram's hub bins serialize wherever they live: balancing cannot
    # win big, but the data-transfer-aware policy must not melt down.
    assert speedup["hist"]["O"] >= 0.5 * speedup["hist"]["B"]
