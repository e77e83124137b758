"""Tests for cross-rank load balancing specifics (Section VI-A end)."""

from repro.config import Design, SystemConfig, TopologyConfig
from repro.runtime.system import NDPSystem

from .conftest import noop_task


def two_rank_o(seed=9, **config):
    """A two-rank design-O system; ``config`` overrides SystemConfig
    fields."""
    topo = TopologyConfig(
        channels=1, ranks_per_channel=2, chips_per_rank=4, banks_per_chip=4,
        channel_bits=32,
    )
    system = NDPSystem(
        SystemConfig(topology=topo, seed=seed, **config).with_design(Design.O)
    )
    system.registry.register("noop", lambda ctx, task: None)
    return system


def skewed_run(seed=9, tasks=500, workload=400, **config):
    """All work seeded on rank 0's first four units, so rank 1 borrows."""
    system = two_rank_o(seed, **config)
    bank = system.addr_map.bank_bytes
    for i in range(tasks):
        system.seed_task(noop_task(
            (i % 4) * bank + (i // 4) * 256, workload=workload,
        ))
    system.run()
    return system


def test_only_fully_idle_ranks_receive():
    """Rank 1 has zero work, so it must become a cross-rank receiver."""
    system = skewed_run()
    rank1_done = sum(u.tasks_executed for u in system.units[16:])
    assert rank1_done > 0
    assert system.fabric.level2._stat_schedules.value >= 1


def test_handle_schedule_from_l2_picks_busiest_children():
    system = two_rank_o()
    bank = system.addr_map.bank_bytes
    # Load two units unevenly and snapshot.
    for i in range(40):
        system.tracker.task_created(0)
        system.units[2].accept_task(noop_task(2 * bank + i * 256,
                                              workload=300))
    for i in range(5):
        system.tracker.task_created(0)
        system.units[3].accept_task(noop_task(3 * bank + i * 256,
                                              workload=300))
    bridge = system.fabric.rank_bridges[0]
    bridge.last_snapshot = {u.unit_id: u.collect_state()
                            for u in bridge.units}
    bridge.handle_schedule_from_l2(budget=600)
    # The busiest child received the SCHEDULE (pending UP assignment).
    assert bridge.pending_assign.get(2), "busiest unit was not chosen"


def test_cross_rank_lend_updates_l2_table():
    system = skewed_run()
    l2 = system.fabric.level2
    # If a cross-rank bundle flowed, the L2 table saw it (entries may be
    # gone if returned; the insert counter persists through hits).
    moved = l2._stat_schedules.value
    if moved:
        assert (
            len(l2.borrowed) > 0
            or l2.borrowed.evictions > 0
            or l2.borrowed.hits + l2.borrowed.misses > 0
        )


def test_results_correct_under_cross_rank_lb():
    system = skewed_run()
    tr = system.tracker
    assert tr.total_created == tr.total_completed
    system.finish()  # the end-of-run checks, lending metadata included
