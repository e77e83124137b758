"""Fig. 10: overall performance of C / B / W / O on all eight apps.

Paper results at 512 units: B = 1.51x over C (bridge communication),
W = 2.23x, O = 2.98x; W sometimes loses to B (tree); ll/ht/spmv show no
communication wait without load balancing.  The bench reproduces the
speedup table, the avg/max load-balance ratios and the wait fractions.
"""

import pytest

from repro.analysis.report import geomean, speedups, text_table
from repro.config import Design

from .common import ALL_APPS, bench_config, run_matrix

DESIGNS = [Design.C, Design.B, Design.W, Design.O]


def _run_fig10():
    return run_matrix(ALL_APPS, {d.value: bench_config(d) for d in DESIGNS})


def test_fig10_overall_comparison(benchmark):
    results = benchmark.pedantic(
        _run_fig10, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = speedups(results, "C")

    rows = []
    for app in ALL_APPS:
        rows.append([app] + [speedup[app][d.value] for d in DESIGNS])
    gm = {
        d.value: geomean(speedup[a][d.value] for a in ALL_APPS)
        for d in DESIGNS
    }
    rows.append(["geomean"] + [gm[d.value] for d in DESIGNS])
    print("\n" + text_table(
        ["app", "C", "B", "W", "O"], rows,
        title="Fig. 10 - speedup over design C",
    ))

    balance_rows = [
        [app] + [results[app][d.value].avg_over_max for d in DESIGNS]
        for app in ALL_APPS
    ]
    print("\n" + text_table(
        ["app", "C", "B", "W", "O"], balance_rows,
        title="Fig. 10 - avg/max unit time (load balance, higher is better)",
    ))

    wait_rows = [
        [app] + [results[app][d.value].wait_fraction for d in DESIGNS]
        for app in ALL_APPS
    ]
    print("\n" + text_table(
        ["app", "C", "B", "W", "O"], wait_rows,
        title="Fig. 10 - wait fraction of total time",
    ))

    # Shape assertions (paper: O > W > B > C on geomean).
    assert gm["B"] > 1.0, "bridges must beat host forwarding"
    assert gm["W"] > gm["B"], "work stealing must add over bridges"
    assert gm["O"] > gm["W"], "data-transfer-aware LB must beat stealing"
    # ll/ht/spmv are communication-free without balancing: B == C.
    for app in ("ll", "ht", "spmv"):
        assert abs(speedup[app]["B"] - 1.0) < 0.05


def test_fig10_balancing_improves_avg_over_max(benchmark):
    """The O design's avg/max ratio must improve on B's (Section VIII-A:
    22.4% -> 59.0% in the paper)."""
    def _run():
        return run_matrix(["ll", "ht", "bfs"], {
            d.value: bench_config(d) for d in (Design.B, Design.O)
        })

    results = benchmark.pedantic(_run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    b = geomean(results[a]["B"].avg_over_max for a in results)
    o = geomean(results[a]["O"].avg_over_max for a in results)
    print(f"\navg/max geomean: B={b:.3f}  O={o:.3f}")
    assert o > b
