"""Fig. 16(c,d): hot-data sketch geometry (buckets x entries).

The sketch identifies the hottest blocks for +Hot scheduling.  The paper
sweeps the bucket count and entries per bucket around the 16 x 16 default:
larger sketches help slightly for some applications but cost area; much
smaller ones lose track of the heavy hitters.
"""

import pytest

from repro.analysis.report import geomean, text_table
from repro.config import Design, SketchConfig

from .common import SWEEP_APPS, bench_config, run_matrix

BUCKET_SWEEP = [4, 16, 64]      # entries fixed at 16  (Fig. 16(c))
ENTRY_SWEEP = [4, 16, 64]       # buckets fixed at 16  (Fig. 16(d))


def _config(buckets, entries):
    cfg = bench_config(Design.O)
    return cfg.replace(
        sketch=SketchConfig(buckets=buckets, entries_per_bucket=entries)
    )


def _relative_performance(benchmark, pairs):
    """Geomean performance of each (buckets, entries) geometry relative to
    the 16 x 16 default.  Both figures run the default's cells; with the
    result cache on, they are simulated once."""
    configs = {f"{b}x{e}": _config(b, e) for b, e in pairs}
    results = benchmark.pedantic(
        lambda: run_matrix(SWEEP_APPS, configs),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    base = geomean(results[app]["16x16"].makespan for app in SWEEP_APPS)
    return [
        base / geomean(results[app][label].makespan for app in SWEEP_APPS)
        for label in configs
    ]


def test_fig16c_bucket_sweep(benchmark):
    perf = _relative_performance(benchmark, [(b, 16) for b in BUCKET_SWEEP])
    print("\n" + text_table(
        ["buckets", "rel. performance"], list(zip(BUCKET_SWEEP, perf)),
        title="Fig. 16(c) - sketch bucket count (16 entries each)",
    ))
    assert perf[BUCKET_SWEEP.index(16)] >= 0.8 * max(perf)


def test_fig16d_entry_sweep(benchmark):
    perf = _relative_performance(benchmark, [(16, e) for e in ENTRY_SWEEP])
    print("\n" + text_table(
        ["entries", "rel. performance"], list(zip(ENTRY_SWEEP, perf)),
        title="Fig. 16(d) - sketch entries per bucket (16 buckets)",
    ))
    assert perf[ENTRY_SWEEP.index(16)] >= 0.8 * max(perf)
