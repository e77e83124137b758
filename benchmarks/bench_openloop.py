"""Open-loop tail-latency benchmark: the index apps driven as services.

The paper evaluates closed-loop makespan; this bench drives ``tree``
open-loop (Section VII's hottest-root workload) with two tenants --
a Poisson tenant whose Zipf skew *shifts* mid-run and a bursty MMPP
tenant -- and reports, per design C/B/W/O:

* exact p50/p99/p999 birth->completion latency per tenant at a
  reference arrival rate, and
* the maximum sustainable throughput: the highest offered rate in a
  sweep whose p99 latency still meets the SLO (a multiple of the
  design's own unloaded median -- queues stay bounded).

Every query enters at the root bank, so under load the root unit is the
capacity bottleneck for C/B; hot-block balancing (W/O) lends the upper
tree levels out and sustains higher rates with flatter tails -- the
open-loop face of Fig. 10.  The bench asserts only the qualitative
shape: all designs complete the stream, and B/W/O tail latency is
distinguishable from C.  Numbers land in ``BENCH_openloop.json``.

``NDPBRIDGE_BENCH_SMOKE=1`` shrinks the stream and records under
``*_smoke`` keys.  Cells run through the exec layer, so they cache and
fan out like every other figure's cells.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.analysis.report import text_table
from repro.config import Design
from repro.exec.runner import CellRequest, execute_cells
from repro.workloads.openloop import OpenLoopSpec, TenantSpec

from .common import BENCH_SEED, bench_config, record

SMOKE = os.environ.get("NDPBRIDGE_BENCH_SMOKE", "0") not in ("0", "")

APP = "tree"
SCALE = 0.1 if SMOKE else 0.35
UNITS = 64 if SMOKE else None  # None -> BENCH_UNITS (default 128)
DESIGNS = [Design.C, Design.B, Design.W, Design.O]

#: Reference stream: tenant "hot" shifts skew 0.6 -> 1.2 mid-run (the
#: hot set moves); tenant "burst" is MMPP-2 with 5x burst intensity.
#: A tree hop costs ~1k cycles of DRAM latency, so the root bank serves
#: roughly one query per ~100 cycles: the reference gaps sit just past
#: C's knee while the balanced designs still have headroom.
N_HOT = 150 if SMOKE else 400
N_BURST = 80 if SMOKE else 200
GAP_HOT = 200.0
GAP_BURST = 400.0
WARMUP = 1000
SKEW_SHIFT_AT = 10000 if SMOKE else 30000

#: Offered-rate sweep: arrival gaps scaled by these factors (1.0 is the
#: reference rate; smaller = faster arrivals).  The slowest point is the
#: unloaded baseline that anchors each design's SLO.
GAP_FACTORS = [8.0, 4.0, 2.0, 1.0, 0.5]

#: A rate is sustainable when hot-tenant p99 latency stays within
#: SLO_MULT x the design's own unloaded median (its p50 at the slowest
#: swept rate).  Queue growth past the knee blows through this within
#: one factor-of-two rate step.
SLO_MULT = 3.0


def openloop_spec(gap_factor: float = 1.0) -> OpenLoopSpec:
    return OpenLoopSpec(
        tenants=(
            TenantSpec(
                name="hot",
                n_requests=N_HOT,
                mean_gap=GAP_HOT * gap_factor,
                skew=((0, 0.6), (SKEW_SHIFT_AT, 1.2)),
            ),
            TenantSpec(
                name="burst",
                n_requests=N_BURST,
                mean_gap=GAP_BURST * gap_factor,
                arrival="bursty",
                burst_gap=GAP_BURST * gap_factor / 5.0,
                skew=((0, 1.0),),
            ),
        ),
        warmup=WARMUP,
    )


def _suffix(key: str) -> str:
    return f"{key}_smoke" if SMOKE else key


def _cell(design: Design, gap_factor: float) -> CellRequest:
    return CellRequest(
        app=APP,
        config=bench_config(design, units=UNITS),
        scale=SCALE,
        seed=BENCH_SEED,
        openloop=openloop_spec(gap_factor),
    )


def test_openloop_tail_latency_and_throughput():
    """p50/p99/p999 per tenant + max sustainable rate, per design."""
    # One flat cell list: every design at every swept rate (the sweep
    # contains the reference rate and the unloaded SLO anchor).
    cells = [_cell(d, f) for d in DESIGNS for f in GAP_FACTORS]
    all_metrics = execute_cells(cells)

    sweep: Dict[Design, List] = {d: [] for d in DESIGNS}
    it = iter(all_metrics)
    for design in DESIGNS:
        for _factor in GAP_FACTORS:
            sweep[design].append(next(it))
    reference = {
        d: sweep[d][GAP_FACTORS.index(1.0)] for d in DESIGNS
    }

    # -- latency table at the reference rate ---------------------------
    rows = []
    payload: Dict[str, object] = {
        "app": APP, "scale": SCALE, "seed": BENCH_SEED,
        "units": UNITS or int(os.environ.get("NDPBRIDGE_BENCH_UNITS",
                                             "128")),
        "warmup": WARMUP,
        "designs": {},
    }
    for design in DESIGNS:
        m = reference[design]
        extra = m.extra
        assert extra["ol/completed"] == extra["ol/requests"], (
            f"{design.value}: open-loop stream did not drain"
        )
        per_design: Dict[str, object] = {"makespan": m.makespan}
        for tenant in ("hot", "burst"):
            stats = {
                "count": int(extra[f"lat/{tenant}/count"]),
                "p50": int(extra[f"lat/{tenant}/p500"]),
                "p99": int(extra[f"lat/{tenant}/p990"]),
                "p999": int(extra[f"lat/{tenant}/p999"]),
                "max": int(extra[f"lat/{tenant}/max"]),
            }
            per_design[tenant] = stats
            rows.append([
                design.value, tenant, stats["count"], stats["p50"],
                stats["p99"], stats["p999"], stats["max"],
            ])
        payload["designs"][design.value] = per_design  # type: ignore[index]

    print("\n" + text_table(
        ["design", "tenant", "n", "p50", "p99", "p999", "max"], rows,
        title=f"Open-loop {APP}: per-tenant latency (cycles) at reference "
              f"rate",
    ))

    # -- max sustainable throughput ------------------------------------
    # Unloaded anchor: the design's hot-tenant median at the slowest
    # swept rate.  A rate is sustainable while hot-tenant p99 holds the
    # SLO (SLO_MULT x that anchor); report the fastest such rate.
    tp_rows = []
    slowest = max(GAP_FACTORS)
    for design in DESIGNS:
        unloaded = sweep[design][GAP_FACTORS.index(slowest)]
        slo = SLO_MULT * unloaded.extra["lat/hot/p500"]
        best = 0.0
        best_factor = None
        for factor, m in zip(GAP_FACTORS, sweep[design]):
            extra = m.extra
            offered = (
                1000.0 * extra["ol/requests"] / extra["ol/last_arrival"]
            )
            sustainable = extra["lat/hot/p990"] <= slo
            if sustainable and offered > best:
                best = offered
                best_factor = factor
        payload["designs"][design.value]["max_sustainable_per_kcycle"] = (  # type: ignore[index]
            round(best, 3)
        )
        payload["designs"][design.value]["slo_p99_cycles"] = int(slo)  # type: ignore[index]
        tp_rows.append([
            design.value, round(best, 2), int(slo),
            best_factor if best_factor is not None else "-",
        ])
    print("\n" + text_table(
        ["design", "max rate", "SLO p99<=", "gap factor"], tp_rows,
        title="Max sustainable throughput (requests / 1000 cycles)",
    ))

    record("BENCH_openloop.json", _suffix(f"openloop_{APP}"), payload)

    # -- shape assertions ----------------------------------------------
    # The bridge designs time every message through real fabric models,
    # so their tails cannot coincide with C's; balancing (W/O) moves hot
    # blocks and visibly reshapes the tail.  Exact values are pinned by
    # the golden tests, not here.
    c_tail = (
        payload["designs"]["C"]["hot"]["p99"],  # type: ignore[index]
        payload["designs"]["C"]["burst"]["p99"],  # type: ignore[index]
    )
    for design in ("B", "W", "O"):
        tail = (
            payload["designs"][design]["hot"]["p99"],  # type: ignore[index]
            payload["designs"][design]["burst"]["p99"],  # type: ignore[index]
        )
        assert tail != c_tail, (
            f"design {design} tail latency indistinguishable from C: {tail}"
        )
