"""Extension experiment: load-balancing benefit vs workload skew.

Sweeps the Zipf exponent of the hash-table workload from uniform to
heavily skewed and measures O's speedup over B.  The paper's thesis in
one curve: with no skew the balancer should stay out of the way (~1x),
and its win must grow monotonically-ish with skew.
"""

import pytest

from repro.analysis.report import text_table
from repro.apps.hash_table import HashTableApp
from repro.config import Design
from repro.runtime.runner import run_app

from .common import BENCH_SEED, bench_config

SKEWS = [0.0, 0.6, 1.0, 1.3]


def _run():
    results = {}
    for skew in SKEWS:
        for design in (Design.B, Design.O):
            app = HashTableApp(
                n_buckets=2048, n_keys=8192, n_queries=8192,
                skew=skew, seed=BENCH_SEED,
            )
            cfg = bench_config(design)
            results[(skew, design.value)] = run_app(app, cfg).metrics
    return results


def test_skew_sensitivity(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    rows = []
    gains = {}
    for skew in SKEWS:
        gain = (
            results[(skew, "B")].makespan / results[(skew, "O")].makespan
        )
        gains[skew] = gain
        rows.append([
            skew,
            results[(skew, "B")].makespan,
            results[(skew, "O")].makespan,
            gain,
            results[(skew, "B")].avg_over_max,
            results[(skew, "O")].avg_over_max,
        ])
    print("\n" + text_table(
        ["skew", "B cycles", "O cycles", "O/B speedup",
         "B avg/max", "O avg/max"], rows,
        title="Balancing benefit vs Zipf skew (ht, O over B)",
    ))

    # Shape: balancing must not hurt the uniform case much, and must help
    # the heavily skewed case clearly more than the uniform one.
    assert gains[0.0] > 0.7, "balancer should stay out of balanced runs"
    assert gains[1.3] > gains[0.0], "skew must increase the LB win"
    assert gains[1.3] > 1.1, "heavy skew must show a real win"
