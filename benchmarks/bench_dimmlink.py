"""Extension experiment: NDPBridge in tandem with DIMM-Link.

Section V-A notes that the level-2 bridge can alternatively use
peer-to-peer inter-DIMM links (DIMM-Link [89]) or broadcast links
(ABC-DIMM [73]) instead of host-forwarded channel traffic -- "NDPBridge
is orthogonal to and can work in tandem with them."  This bench measures
that combination on a multi-rank system: cross-rank messages ride
dedicated 25 GB/s p2p ports instead of the shared DDR channels.
"""

from dataclasses import replace

import pytest

from repro.analysis.report import geomean, speedups, text_table
from repro.config import Design

from .common import bench_config, run_matrix

APPS = ["tree", "bfs", "pr"]
UNITS = 256  # multi-rank so cross-rank traffic exists


def _config(links: bool):
    # Design B isolates the communication path; O's balancer reacts to
    # transport speed and would confound the comparison.
    cfg = bench_config(Design.B, units=UNITS)
    return cfg.replace(comm=replace(cfg.comm, inter_rank_links=links))


def _run():
    return run_matrix(APPS, {"channel": _config(False),
                             "dimm-link": _config(True)})


def test_dimmlink_tandem(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    speedup = speedups(results, "channel")
    rows = [
        [app, results[app]["channel"].makespan,
         results[app]["dimm-link"].makespan, speedup[app]["dimm-link"]]
        for app in APPS
    ]
    gm = geomean(speedup[app]["dimm-link"] for app in APPS)
    rows.append(["geomean", "", "", gm])
    print("\n" + text_table(
        ["app", "channel cycles", "p2p cycles", "speedup"], rows,
        title="NDPBridge + DIMM-Link p2p inter-rank links (B, 256 units)",
    ))
    # Shape: dedicated links never hurt cross-rank communication.
    assert gm >= 0.98
