"""Golden regression tests: exact pinned results for a small matrix.

The simulator is deterministic by contract, so these are equality tests,
not tolerances: any diff in makespan, task count, a latency tail, the
event count or any counter on the (app x design) matrix below means the
*model changed*.  If the change is intentional, regenerate the tables
and review the diff like any other golden update:

    PYTHONPATH=src python tests/test_golden.py

prints freshly computed ``CLOSED``/``OPENLOOP``/``STATS``/``L2_STATS``/
``ROUND_STATS``/``RETURN_STATS`` dicts to paste over the ones in this file.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro import make_app, run_app
from repro.bridge.level1 import Level1Bridge
from repro.config import (
    Design,
    TriggerMode,
    scaled_config,
    small_config,
    tiny_config,
)
from repro.runtime.requests import run_openloop
from repro.workloads.openloop import OpenLoopSpec, TenantSpec

APPS = ("ll", "ht", "tree")
DESIGNS = (Design.C, Design.B, Design.W, Design.O)
SCALE = 0.05
SEED = 7

REGEN = ("run `PYTHONPATH=src python tests/test_golden.py` and paste "
         "the printed tables over the goldens if the change is intended")

#: Closed-loop goldens: (makespan, tasks_executed, task_messages).
CLOSED = {
    ("ll", "C"): (80342, 8766, 0),
    ("ll", "B"): (80342, 8766, 0),
    ("ll", "W"): (52945, 8766, 1167),
    ("ll", "O"): (71944, 8766, 90),
    ("ht", "C"): (7324, 499, 0),
    ("ht", "B"): (7324, 499, 0),
    ("ht", "W"): (7769, 499, 14),
    ("ht", "O"): (6542, 499, 10),
    ("tree", "C"): (28281, 671, 369),
    ("tree", "B"): (8865, 671, 369),
    ("tree", "W"): (11577, 671, 384),
    ("tree", "O"): (8866, 671, 369),
}

#: Open-loop goldens: (makespan, tenant-a p99, tenant-b p99).
OPENLOOP = {
    ("ll", "C"): (44777, 42075, 42099),
    ("ll", "B"): (44777, 42075, 42099),
    ("ll", "W"): (37354, 34560, 34500),
    ("ll", "O"): (44777, 42075, 42099),
    ("ht", "C"): (4473, 2024, 1821),
    ("ht", "B"): (4473, 2024, 1821),
    ("ht", "W"): (6175, 3053, 3233),
    ("ht", "O"): (4473, 2024, 1733),
    ("tree", "C"): (26312, 23667, 23369),
    ("tree", "B"): (9485, 6044, 6462),
    ("tree", "W"): (10949, 7668, 7134),
    ("tree", "O"): (8984, 5884, 6516),
}


#: Cells pinned counter by counter: the matrix above plus ``pr``, whose
#: message-heavy path the other apps barely exercise.
STATS_CELLS = tuple(
    (app, design) for app in APPS for design in DESIGNS
) + (("pr", Design.B), ("pr", Design.O))

#: Closed-loop counter goldens: (events_processed, first 16 hex digits of
#: the sha256 of ``stats.as_dict()`` dumped as sorted-key JSON).
STATS = {
    ("ll", "C"): (17368, "475e968e0d7209e9"),
    ("ll", "B"): (17408, "0b000431fddd3c42"),
    ("ll", "W"): (18467, "1d6b380f5ee9b6db"),
    ("ll", "O"): (17552, "aa6005a31056287b"),
    ("ht", "C"): (797, "75a13baee907dfe9"),
    ("ht", "B"): (800, "405e240328b1b719"),
    ("ht", "W"): (854, "6923e791e3604f32"),
    ("ht", "O"): (834, "f79c1148bacc25bd"),
    ("tree", "C"): (1374, "ef606eee216b64db"),
    ("tree", "B"): (1622, "7561acb611a57467"),
    ("tree", "W"): (1656, "c89a9a9f4708729c"),
    ("tree", "O"): (1624, "daa94b6b4ece839c"),
    ("pr", "B"): (2589, "6a782cde6042085a"),
    ("pr", "O"): (2589, "ca9b9c45835087da"),
}

#: Every cell above fits one rank, so none reaches the level-2 bridge.
#: These run two ranks (``scaled_config(L2_UNITS, design)``) and are
#: pinned the same way as ``STATS``.
L2_UNITS = 128
L2_STATS = {
    ("tree", "O"): (2066, "8071785899da3bc3"),
    ("bfs", "W"): (2566, "694170c4292a6274"),
}


#: No cell above reaches a blind gather, a paused gather or a soft backup
#: overflow: the level-1 round's rarer branches.  These tiny-config B
#: cells do, each through one config change (``round_config``), and are
#: pinned the same way as ``STATS``.
ROUND_STATS = {
    ("tree", "fixed_trigger"): (1476, "6a68b50a7d0bc5b3"),
    ("pr", "backup_4k"): (2612, "5eead9186f204ba0"),
}

#: No cell above sends a lent block home.  This one does (192 lends, 64
#: returns): wcc at ``RETURN_SCALE`` on ``small_config(design, SEED)``,
#: pinned the same way as ``STATS``.
RETURN_SCALE = 0.1
RETURN_STATS = {
    ("wcc", "W"): (9595, "53e0ed4057ec9c69"),
}


def golden_spec() -> OpenLoopSpec:
    return OpenLoopSpec(
        tenants=(
            TenantSpec(name="a", n_requests=60, mean_gap=60.0,
                       skew=((0, 0.6), (1500, 1.2))),
            TenantSpec(name="b", n_requests=40, mean_gap=90.0,
                       arrival="bursty", burst_gap=15.0,
                       skew=((0, 1.0),)),
        ),
        warmup=400,
    )


def closed_result(app: str, design: Design):
    m = run_app(make_app(app, scale=SCALE, seed=SEED),
                tiny_config(design)).metrics
    return (m.makespan, m.tasks_executed, m.task_messages)


def _stats_of(system):
    blob = json.dumps(system.stats.as_dict(), sort_keys=True)
    return (system.sim.events_processed,
            hashlib.sha256(blob.encode()).hexdigest()[:16])


def stats_result(app: str, design: Design):
    return _stats_of(run_app(make_app(app, scale=SCALE, seed=SEED),
                             tiny_config(design)).system)


def l2_stats_result(app: str, design: Design):
    """``(events, digest)`` of a two-rank cell, and its level-2 rounds."""
    system = run_app(make_app(app, scale=SCALE, seed=SEED),
                     scaled_config(L2_UNITS, design)).system
    rounds = system.stats.as_dict()["bridge_l2.message_rounds"]
    return _stats_of(system), rounds


def round_config(variant: str):
    """``tiny_config(Design.B)`` with one change that drives a branch:
    fixed triggering gathers every child, wasting gathers on empty
    mailboxes; a 4 kB backup buffer pauses gathering and soft-overflows."""
    cfg = tiny_config(Design.B)
    if variant == "fixed_trigger":
        return replace(cfg, comm=replace(cfg.comm,
                                         trigger_mode=TriggerMode.FIXED))
    assert variant == "backup_4k", variant
    return replace(cfg, bridge=replace(cfg.bridge, backup_buffer_bytes=4096))


def round_stats_result(app: str, variant: str):
    """``(events, digest)`` of a ``ROUND_STATS`` cell, and its stats."""
    system = run_app(make_app(app, scale=SCALE, seed=SEED),
                     round_config(variant)).system
    return _stats_of(system), system.stats.as_dict()


def return_stats_result(app: str, design: Design):
    """``(events, digest)`` of a ``RETURN_STATS`` cell, and its stats."""
    system = run_app(make_app(app, scale=RETURN_SCALE, seed=SEED),
                     small_config(design, seed=SEED)).system
    return _stats_of(system), system.stats.as_dict()


def openloop_result(app: str, design: Design):
    r = run_openloop(app, tiny_config(design), golden_spec(),
                     scale=SCALE, seed=SEED)
    e = r.metrics.extra
    return (r.metrics.makespan, int(e["lat/a/p990"]),
            int(e["lat/b/p990"]))


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("design", DESIGNS)
def test_closed_loop_golden(app, design):
    got = closed_result(app, design)
    want = CLOSED[(app, design.value)]
    assert got == want, (
        f"{app}/{design.value}: (makespan, tasks, task_msgs) {got} != "
        f"golden {want} -- the model changed; {REGEN}"
    )


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("design", DESIGNS)
def test_openloop_golden(app, design):
    got = openloop_result(app, design)
    want = OPENLOOP[(app, design.value)]
    assert got == want, (
        f"{app}/{design.value}: (makespan, p99_a, p99_b) {got} != "
        f"golden {want} -- the model changed; {REGEN}"
    )


@pytest.mark.parametrize(
    "app,design", STATS_CELLS,
    ids=[f"{d.value}-{a}" for a, d in STATS_CELLS],
)
def test_stats_golden(app, design):
    got = stats_result(app, design)
    want = STATS[(app, design.value)]
    assert got == want, (
        f"{app}/{design.value}: (events, stats digest) {got} != "
        f"golden {want} -- the model changed; {REGEN}"
    )


@pytest.mark.parametrize(
    "app,design", sorted(L2_STATS), ids=[f"{d}-{a}" for a, d in sorted(L2_STATS)],
)
def test_level2_stats_golden(app, design):
    got, rounds = l2_stats_result(app, Design(design))
    assert rounds >= 1, f"{app}/{design}: no level-2 round ran"
    want = L2_STATS[(app, design)]
    assert got == want, (
        f"{app}/{design} at {L2_UNITS} units: (events, stats digest) {got} "
        f"!= golden {want} -- the model changed; {REGEN}"
    )


def test_round_branch_stats_golden_fixed_trigger():
    got, stats = round_stats_result("tree", "fixed_trigger")
    assert stats["bridge0.wasted_gathers"] >= 1, "no blind gather ran"
    want = ROUND_STATS[("tree", "fixed_trigger")]
    assert got == want, (
        f"tree/fixed_trigger: (events, stats digest) {got} != golden "
        f"{want} -- the model changed; {REGEN}"
    )


def test_round_branch_stats_golden_backup_4k(monkeypatch):
    pauses = []
    gather_paused = Level1Bridge._gather_paused

    def counting(self):
        paused = gather_paused(self)
        pauses.append(paused)
        return paused

    monkeypatch.setattr(Level1Bridge, "_gather_paused", counting)
    got, stats = round_stats_result("pr", "backup_4k")
    assert any(pauses), "gathering never paused"
    assert stats["bridge0.backup_overflows"] >= 1, "no soft backup overflow"
    want = ROUND_STATS[("pr", "backup_4k")]
    assert got == want, (
        f"pr/backup_4k: (events, stats digest) {got} != golden {want} "
        f"-- the model changed; {REGEN}"
    )


def test_block_return_stats_golden():
    got, stats = return_stats_result("wcc", Design.W)
    returned = sum(v for k, v in stats.items()
                   if k.endswith(".blocks_returned"))
    assert returned > 0, "no lent block came home"
    want = RETURN_STATS[("wcc", "W")]
    assert got == want, (
        f"wcc/W on small_config: (events, stats digest) {got} != golden "
        f"{want} -- the model changed; {REGEN}"
    )


def test_golden_matrix_is_complete():
    keys = {(a, d.value) for a in APPS for d in DESIGNS}
    assert set(CLOSED) == keys
    assert set(OPENLOOP) == keys
    assert set(STATS) == {(a, d.value) for a, d in STATS_CELLS}


def _regenerate() -> None:  # pragma: no cover - manual tool
    print("CLOSED = {")
    for app in APPS:
        for design in DESIGNS:
            print(f'    ("{app}", "{design.value}"): '
                  f'{closed_result(app, design)},')
    print("}")
    print("OPENLOOP = {")
    for app in APPS:
        for design in DESIGNS:
            print(f'    ("{app}", "{design.value}"): '
                  f'{openloop_result(app, design)},')
    print("}")
    print("STATS = {")
    for app, design in STATS_CELLS:
        events, digest = stats_result(app, design)
        print(f'    ("{app}", "{design.value}"): ({events}, "{digest}"),')
    print("}")
    print("L2_STATS = {")
    for app, design in sorted(L2_STATS):
        (events, digest), _ = l2_stats_result(app, Design(design))
        print(f'    ("{app}", "{design}"): ({events}, "{digest}"),')
    print("}")
    print("ROUND_STATS = {")
    for app, variant in ROUND_STATS:
        (events, digest), _ = round_stats_result(app, variant)
        print(f'    ("{app}", "{variant}"): ({events}, "{digest}"),')
    print("}")
    print("RETURN_STATS = {")
    for app, design in RETURN_STATS:
        (events, digest), _ = return_stats_result(app, Design(design))
        print(f'    ("{app}", "{design}"): ({events}, "{digest}"),')
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
