"""Fig. 15: impact of the DRAM chip DQ pin width (x4 / x8 / x16).

The channel stays 64 bits, so x4 parts mean 16 chips (1024 banks) with
narrow 1.2 GB/s per-chip links, and x16 parts mean 4 chips (256 banks)
with fat links.  Paper shape: with x4 chips communication dominates, so
the bridges alone (B) give the largest gain (2.33x over C); with x16
chips bandwidth is plentiful and the *load balancing* (W, O over B)
contributes most.
"""

import pytest

from repro.analysis.report import geomean, speedups, text_table
from repro.config import Design, SystemConfig, TopologyConfig

from .common import BENCH_SCALE, BENCH_SEED, SWEEP_APPS, run_matrix

DESIGNS = [Design.C, Design.B, Design.W, Design.O]
WIDTHS = [4, 8, 16]


def _width_config(dq_bits, design):
    # One channel at bench scale; chips * dq = 64 bits, 8 banks per chip.
    topo = TopologyConfig(
        channels=1, ranks_per_channel=1, chips_per_rank=64 // dq_bits,
        dq_bits_per_chip=dq_bits,
    )
    return SystemConfig(topology=topo, seed=BENCH_SEED).with_design(design)


def _run_fig15():
    results = {}
    for width in WIDTHS:
        configs = {d.value: _width_config(width, d) for d in DESIGNS}
        # The bank count varies with chip width (128/64/32 here); keep
        # per-unit work constant so the sweep isolates link bandwidth,
        # as the paper's fixed large inputs do.
        scale = BENCH_SCALE * configs["C"].topology.total_units / 64
        results[width] = run_matrix(SWEEP_APPS, configs, scale=scale)
    return results


def test_fig15_dq_pin_width(benchmark):
    results = benchmark.pedantic(
        _run_fig15, rounds=1, iterations=1, warmup_rounds=0
    )
    rows = []
    gain = {}
    for width in WIDTHS:
        speedup = speedups(results[width], "C")
        gain[width] = {
            d.value: geomean(speedup[app][d.value] for app in SWEEP_APPS)
            for d in DESIGNS
        }
        rows.append([f"x{width}"] + [gain[width][d.value] for d in DESIGNS])
    print("\n" + text_table(
        ["width", "C", "B", "W", "O"], rows,
        title="Fig. 15 - geomean speedup over C per chip width",
    ))

    # Shape: B's (communication) gain is largest with narrow x4 links and
    # smallest with fat x16 links; O works at every width.
    assert gain[4]["B"] >= gain[16]["B"], (
        "bridge communication should matter most with narrow chips"
    )
    for width in WIDTHS:
        assert gain[width]["O"] > 1.0
