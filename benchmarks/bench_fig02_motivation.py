"""Fig. 2: inefficiencies of the baseline DRAM-bank NDP architecture.

The paper's motivating experiment: tree traversal on design C (host-CPU
message forwarding, no load balancing).  The figure reports (a) the wait
time -- total execution time minus the critical unit's actual task
execution time, 32.9% in the paper -- and (b) the large gap between the
maximum and average per-unit time (load imbalance).
"""

import pytest

from repro.analysis.report import text_table
from repro.config import Design

from .common import bench_config, run_matrix


def _run_motivation():
    return run_matrix(["tree"], {"C": bench_config(Design.C)})["tree"]["C"]


def test_fig02_tree_on_baseline(benchmark):
    metrics = benchmark.pedantic(
        _run_motivation, rounds=1, iterations=1, warmup_rounds=0
    )
    rows = [
        ["total (max unit) cycles", metrics.makespan],
        ["average unit time", int(metrics.avg_unit_time)],
        ["avg / max", metrics.avg_over_max],
        ["wait fraction of total", metrics.wait_fraction],
    ]
    print("\n" + text_table(
        ["quantity", "value"], rows,
        title="Fig. 2 - tree traversal on baseline design C",
    ))
    # Paper: 32.9% wait and a large max/avg gap.  Shape assertions:
    assert metrics.wait_fraction > 0.10, "baseline should wait on the host"
    assert metrics.avg_over_max < 0.5, "baseline should be imbalanced"
