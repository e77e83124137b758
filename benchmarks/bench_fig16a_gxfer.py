"""Fig. 16(a): transfer granularity G_xfer x metadata table capacity.

G_xfer is both the gather/scatter access granularity and the load-balance
block size.  The paper sweeps 64 B / 256 B / 1024 B against 1/4x, 1x and
4x metadata storage (isLent + dataBorrowed): 256 B is the balanced
default; 64 B can edge ahead only when granted 4x metadata (more, smaller
blocks need more tracking entries).
"""

from dataclasses import replace

import pytest

from repro.analysis.report import geomean, text_table
from repro.config import Design

from .common import SWEEP_APPS, bench_config, run_matrix

G_XFERS = [64, 256, 1024]
META_SCALES = [0.25, 1.0, 4.0]


def _config(g_xfer, meta_scale):
    cfg = bench_config(Design.O)
    return cfg.replace(
        comm=replace(cfg.comm, g_xfer_bytes=g_xfer),
        balance=replace(cfg.balance, metadata_scale=meta_scale),
    )


def _run_fig16a():
    return run_matrix(SWEEP_APPS, {
        f"{g}/{scale}": _config(g, scale)
        for g in G_XFERS for scale in META_SCALES
    })


def test_fig16a_gxfer_and_metadata(benchmark):
    results = benchmark.pedantic(
        _run_fig16a, rounds=1, iterations=1, warmup_rounds=0
    )
    base = geomean(results[app]["256/1.0"].makespan for app in SWEEP_APPS)
    rows = []
    perf = {}
    for g in G_XFERS:
        row = [f"{g}B"]
        for scale in META_SCALES:
            gm = geomean(results[app][f"{g}/{scale}"].makespan
                         for app in SWEEP_APPS)
            perf[(g, scale)] = base / gm
            row.append(base / gm)
        rows.append(row)
    print("\n" + text_table(
        ["G_xfer", "1/4x meta", "1x meta", "4x meta"], rows,
        title="Fig. 16(a) - performance vs default (G_xfer=256B, 1x metadata)",
    ))

    # Shape: the default is competitive with every alternative.
    best = max(perf.values())
    assert perf[(256, 1.0)] >= 0.75 * best, (
        "the paper's 256 B / 1x default should be a good balance"
    )
    # Metadata capacity should never *hurt* much when increased.
    for g in G_XFERS:
        assert perf[(g, 4.0)] >= perf[(g, 0.25)] * 0.8
