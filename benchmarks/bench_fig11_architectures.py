"""Fig. 11: NDPBridge vs host-only execution (H) and RowClone (R).

Paper results: C is only ~1.2x over H (wimpy cores + communication +
imbalance eat the NDP advantage); O reaches 3.59x over H.  R (intra-chip
RowClone copies, host forwarding across chips) is 1.35x over C, and O is
2.23x over R.
"""

import pytest

from repro.analysis.report import geomean, speedups, text_table
from repro.config import Design

from .common import ALL_APPS, bench_config, run_matrix

DESIGNS = [Design.H, Design.C, Design.R, Design.O]


def _run_fig11():
    return run_matrix(ALL_APPS, {d.value: bench_config(d) for d in DESIGNS})


def test_fig11_architecture_comparison(benchmark):
    results = benchmark.pedantic(
        _run_fig11, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = speedups(results, "H")
    rows = [
        [app] + [speedup[app][d.value] for d in DESIGNS]
        for app in ALL_APPS
    ]
    gm = {
        d.value: geomean(speedup[a][d.value] for a in ALL_APPS)
        for d in DESIGNS
    }
    rows.append(["geomean"] + [gm[d.value] for d in DESIGNS])
    print("\n" + text_table(
        ["app", "H", "C", "R", "O"], rows,
        title="Fig. 11 - speedup over host-only execution (H)",
    ))

    # Shape assertions (paper Section VIII-A).  Note on H: the paper's
    # host loses to O by 3.59x because its working sets are DRAM-resident
    # (far beyond the 20 MB LLC); at bench scale the host's shared memory
    # communicates for free while the NDP machine pays real message
    # latency, so the absolute crossover needs paper-scale inputs
    # (NDPBRIDGE_BENCH_SCALE >> 1).  The *relative* shape -- NDPBridge
    # multiplying baseline NDP's competitiveness against the host -- is
    # scale-independent and asserted here.
    assert gm["O"] > gm["C"], "NDPBridge must beat baseline NDP"
    assert gm["O"] > gm["R"], "NDPBridge must beat RowClone forwarding"
    assert gm["R"] >= gm["C"] * 0.95, "RowClone should not lose to C"
    assert gm["O"] >= 2.0 * gm["C"], (
        "NDPBridge should multiply NDP's competitiveness vs the host"
    )
