"""Fig. 14(a): ablation of the data-transfer-aware techniques.

Starting from W (traditional work stealing with workload correction), the
paper applies each optimization alone -- +Adv (in-advance scheduling to
hide latency, +4.6%), +Fine (fine-grained stealing to avoid congestion,
1.19x), +Hot (hot data/task selection to reduce traffic, 1.29x) -- and all
together as O (1.35x over W).
"""

import pytest

from repro.analysis.report import geomean, speedups, text_table
from repro.config import Design, ablation_config

from .common import ALL_APPS, bench_config, run_matrix

VARIANTS = [
    ("W", dict(advance_trigger=False, fine_grained=False, hot_selection=False)),
    ("+Adv", dict(advance_trigger=True, fine_grained=False, hot_selection=False)),
    ("+Fine", dict(advance_trigger=False, fine_grained=True, hot_selection=False)),
    ("+Hot", dict(advance_trigger=False, fine_grained=False, hot_selection=True)),
    ("O", dict(advance_trigger=True, fine_grained=True, hot_selection=True)),
]


def _run_fig14a():
    base = bench_config(Design.W)
    return run_matrix(ALL_APPS, {
        name: ablation_config(base=base, seed=base.seed, **flags)
        for name, flags in VARIANTS
    })


def test_fig14a_ablation(benchmark):
    results = benchmark.pedantic(
        _run_fig14a, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = speedups(results, "W")
    gms = {
        name: geomean(speedup[app][name] for app in ALL_APPS)
        for name, _ in VARIANTS
    }
    print("\n" + text_table(
        ["variant", "speedup"], list(gms.items()),
        title="Fig. 14(a) - geomean speedup over W",
    ))

    # Shape: every single optimization helps on average, and the full
    # combination is the best variant.
    assert gms["O"] > 1.0, "combined optimizations must beat W"
    assert gms["O"] >= max(gms["+Adv"], gms["+Fine"], gms["+Hot"]) * 0.9, (
        "the combination should be at least on par with each alone"
    )
