"""Focused unit tests of level-2 bridge internals."""

from dataclasses import replace

from repro.config import Design, SystemConfig, TopologyConfig
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task


def four_rank_config(design=Design.O, seed=5):
    topo = TopologyConfig(
        channels=2, ranks_per_channel=2, chips_per_rank=4, banks_per_chip=4,
        channel_bits=32,
    )
    return SystemConfig(topology=topo, seed=seed).with_design(design)


def make_system(design=Design.O):
    system = NDPSystem(four_rank_config(design))
    system.registry.register("noop", lambda ctx, task: None)
    return system


def bank_addr(system, unit_id, offset=0):
    return unit_id * system.addr_map.bank_bytes + offset


def test_channels_mapped_to_ranks():
    system = make_system()
    l2 = system.fabric.level2
    assert len(l2.channel_links) == 2
    assert l2._uplink(0) is l2.channel_links[0]
    assert l2._uplink(1) is l2.channel_links[0]
    assert l2._uplink(2) is l2.channel_links[1]
    assert l2._uplink(3) is l2.channel_links[1]


def test_uplink_selection():
    system = make_system()
    l2 = system.fabric.level2
    assert l2.p2p_ports is None
    assert l2._uplink(3) is l2.channel_links[1]
    linked = NDPSystem(four_rank_config().replace(
        comm=replace(four_rank_config().comm, inter_rank_links=True)
    ))
    ll2 = linked.fabric.level2
    assert ll2._uplink(3) is ll2.p2p_ports[3]


def test_cross_channel_message_counted():
    system = make_system()
    # Unit 0 lives on channel 0; unit 48 (rank 3) on channel 1.
    def spawn(ctx, task):
        ctx.enqueue_task("noop", task.ts, bank_addr(system, 48))

    system.registry.register("spawn", spawn)
    system.seed_task(Task(func="spawn", ts=0, data_addr=bank_addr(system, 0)))
    system.run()
    assert system.units[48].tasks_executed == 1
    l2 = system.fabric.level2
    # Both channels carried the message (gather on 0, scatter on 1).
    assert l2.channel_links[0].total_bytes > 0
    assert l2.channel_links[1].total_bytes > 0


def test_round_budget_scales_with_chunks():
    base = four_rank_config()
    small = base.replace(comm=replace(base.comm, max_chunks_per_round=2))
    sys_small = NDPSystem(small)
    sys_base = NDPSystem(four_rank_config())
    assert (
        sys_small.fabric.level2.round_budget
        < sys_base.fabric.level2.round_budget
    )


def test_l2_borrowed_tracks_cross_rank_lends():
    system = make_system(Design.O)
    # Pile work on one rank so the level-2 balancer engages.
    for i in range(300):
        system.seed_task(Task(func="noop", ts=0,
                              data_addr=bank_addr(system, 2, i * 64),
                              workload=400, actual_cycles=400))
    system.run()
    l2 = system.fabric.level2
    # Either the cross-rank balancer placed entries or it never needed
    # to (fast drain) -- but the schedule command counter tells us.
    if l2._stat_schedules.value:
        executed_other_ranks = sum(
            u.tasks_executed for u in system.units[16:]
        )
        assert executed_other_ranks > 0
