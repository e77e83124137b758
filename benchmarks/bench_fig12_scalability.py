"""Fig. 12: scalability from 64 to 1024 NDP units running pr.

The paper normalizes to design C at 64 units and shows NDPBridge's
advantage *growing* with system scale: more units spread the same data
thinner, making communication and imbalance more critical.  The hierarchy
confines intra-rank traffic below the level-1 bridges, which is what keeps
O scaling (1.68x going 512 -> 1024 units in the paper).
"""

import os

import pytest

from repro.analysis.report import text_table
from repro.config import Design

from .common import BENCH_SCALE, bench_config, run_matrix

UNIT_COUNTS = [64, 128, 256, 512]
if os.environ.get("NDPBRIDGE_BENCH_FULL"):
    UNIT_COUNTS.append(1024)

DESIGNS = [Design.C, Design.B, Design.W, Design.O]


#: Fig. 12 keeps the workload fixed while scaling the machine, so it must
#: be sized for the largest unit count (the paper's graphs are orders of
#: magnitude larger than any machine it runs on).
FIG12_SCALE = max(2.0, BENCH_SCALE * 4)


def _run_fig12():
    configs = {
        f"{units}/{d.value}": bench_config(d, units=units)
        for units in UNIT_COUNTS for d in DESIGNS
    }
    return run_matrix(["pr"], configs, scale=FIG12_SCALE)["pr"]


def test_fig12_scalability(benchmark):
    results = benchmark.pedantic(
        _run_fig12, rounds=1, iterations=1, warmup_rounds=0
    )
    base = results["64/C"].makespan
    rows = []
    for units in UNIT_COUNTS:
        rows.append([units] + [
            base / results[f"{units}/{d.value}"].makespan for d in DESIGNS
        ])
    print("\n" + text_table(
        ["units", "C", "B", "W", "O"], rows,
        title="Fig. 12 - pr speedup normalized to C @ 64 units",
    ))

    # Shape: O's advantage over C grows (or at least persists) with scale.
    small_gap = results["64/C"].makespan / results["64/O"].makespan
    large = UNIT_COUNTS[-1]
    large_gap = (
        results[f"{large}/C"].makespan / results[f"{large}/O"].makespan
    )
    print(f"\nO over C: {small_gap:.2f}x @ 64 units, "
          f"{large_gap:.2f}x @ {large} units")
    assert large_gap > 1.0
    assert large_gap >= 0.8 * small_gap, (
        "NDPBridge's advantage should not collapse with scale"
    )


def test_fig12_hierarchy_localizes_traffic(benchmark):
    """The level-2 bridge carries less traffic than the level-1 bridges
    combined (40.4% at 512 units in the paper)."""
    from repro import make_app, run_app

    def _run():
        app = make_app("pr", scale=BENCH_SCALE, seed=17)
        return run_app(app, bench_config(Design.O, units=256)).system

    system = benchmark.pedantic(_run, rounds=1, iterations=1,
                                warmup_rounds=0)
    l1_bytes = sum(
        link.total_bytes
        for bridge in system.fabric.rank_bridges
        for link in bridge.chip_links
    )
    l2_bytes = sum(
        link.total_bytes for link in system.fabric.level2.channel_links
    )
    frac = l2_bytes / max(1, l1_bytes)
    print(f"\nlevel-2 traffic / level-1 traffic = {frac:.2%}")
    assert frac < 1.0, "cross-rank traffic must be the minority"
