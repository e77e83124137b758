"""Tests for the bundle-profitability guard (transfer-aware selection)."""

from repro.config import Design, tiny_config
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

from .conftest import noop_task


def make_unit():
    system = NDPSystem(tiny_config(Design.O))
    system.registry.register("noop", lambda ctx, task: None)
    return system, system.units[0]


class TestBundleProfitable:
    def test_fat_work_is_profitable(self):
        _, unit = make_unit()
        unit._queue_workload = 100_000
        # 10 tasks of 500 workload each vs ~2x(256+640)/6 = 300 cycles.
        assert unit._bundle_profitable(5000, 10)

    def test_thin_tasks_are_not(self):
        _, unit = make_unit()
        unit._queue_workload = 100_000
        # 100 increments of 5 workload: 1500 work vs ~2250 transfer.
        assert not unit._bundle_profitable(500, 100)

    def test_giver_must_keep_overlap_work(self):
        _, unit = make_unit()
        # Same fat bundle, but the giver has nothing else to do.
        unit._queue_workload = 5000
        assert not unit._bundle_profitable(5000, 10)

    def test_followup_chain_credit(self):
        _, unit = make_unit()
        unit._queue_workload = 100_000
        # Marginal bundle: unprofitable without chain credit...
        unit.tasks_executed = 0
        assert not unit._bundle_profitable(500, 100)
        # ...but profitable when tasks spawn same-block successors.
        unit.tasks_executed = 100
        unit._same_block_spawns = 80
        assert unit._bundle_profitable(500, 100)

    def test_chain_ratio_capped(self):
        _, unit = make_unit()
        unit._queue_workload = 100_000
        unit.tasks_executed = 10
        unit._same_block_spawns = 10  # ratio would be 1.0 -> capped at 0.9
        assert unit._bundle_profitable(300, 50)


class TestSameBlockSpawnTracking:
    def test_same_block_children_counted(self):
        system = NDPSystem(tiny_config(Design.O))

        def chain(ctx, task):
            if task.args[0] > 0:
                # Child on the same 256 B block.
                ctx.enqueue_task("chain", task.ts, task.data_addr,
                                 workload=4, args=(task.args[0] - 1,))

        system.registry.register("chain", chain)
        system.seed_task(Task(func="chain", ts=0, data_addr=64,
                              workload=4, args=(5,)))
        system.run()
        unit = system.units[0]
        assert unit.tasks_executed == 6
        assert unit._same_block_spawns == 5

    def test_cross_block_children_not_counted(self):
        system = NDPSystem(tiny_config(Design.O))

        def spray(ctx, task):
            ctx.enqueue_task("leaf", task.ts, task.data_addr + 4096,
                             workload=4)

        system.registry.register("spray", spray)
        system.registry.register("leaf", lambda c, t: None)
        system.seed_task(Task(func="spray", ts=0, data_addr=0, workload=4))
        system.run()
        assert system.units[0]._same_block_spawns == 0

    def test_units_that_price_no_bundle_count_nothing(self):
        # Design B selects no hot blocks, so nothing reads the count.
        system = NDPSystem(tiny_config(Design.B))

        def chain(ctx, task):
            if task.args[0] > 0:
                ctx.enqueue_task("chain", task.ts, task.data_addr,
                                 workload=4, args=(task.args[0] - 1,))

        system.registry.register("chain", chain)
        system.seed_task(Task(func="chain", ts=0, data_addr=64,
                              workload=4, args=(5,)))
        system.run()
        unit = system.units[0]
        assert unit.tasks_executed == 6
        assert unit._same_block_spawns == 0


def test_unprofitable_schedule_keeps_tasks_home():
    """A giver full of tiny, spawn-free tasks declines to lend."""
    system, unit = make_unit()
    for i in range(200):
        t = noop_task(i * 8, workload=2)  # many tasks per block, tiny work
        system.tracker.task_created(0)
        unit.accept_task(t)
    unit.handle_schedule(budget=500)
    assert not unit._lend_pending
    assert system.tracker.data_messages_in_flight == 0
