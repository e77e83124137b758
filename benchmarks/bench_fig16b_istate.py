"""Fig. 16(b): state-gathering interval I_state.

STATE-GATHER runs every I_state cycles and feeds both the communication
triggering and the load balancer.  Too coarse reacts slowly; too fine
wastes link time.  The paper finds 2000 cycles retains full performance.
"""

from dataclasses import replace

import pytest

from repro.analysis.report import geomean, text_table
from repro.config import Design

from .common import SWEEP_APPS, bench_config, run_matrix

I_STATES = [500, 1000, 2000, 4000, 8000]


def _config(i_state):
    cfg = bench_config(Design.O)
    return cfg.replace(comm=replace(cfg.comm, i_state_cycles=i_state))


def _run_fig16b():
    return run_matrix(SWEEP_APPS, {str(i): _config(i) for i in I_STATES})


def test_fig16b_istate_sweep(benchmark):
    results = benchmark.pedantic(
        _run_fig16b, rounds=1, iterations=1, warmup_rounds=0
    )
    base = geomean(results[app]["2000"].makespan for app in SWEEP_APPS)
    perf = {
        label: base / geomean(results[app][label].makespan
                              for app in SWEEP_APPS)
        for label in results[SWEEP_APPS[0]]
    }
    print("\n" + text_table(
        ["I_state", "rel. performance"], list(perf.items()),
        title="Fig. 16(b) - performance vs default I_state = 2000 cycles",
    ))

    # Shape: the default retains close-to-best performance.
    assert perf["2000"] >= 0.8 * max(perf.values())
