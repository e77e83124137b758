"""Tests for the NDP unit model: queues, mailbox stalls, metadata."""

from dataclasses import replace

import pytest

from repro.config import Design, tiny_config
from repro.messages import DataMessage
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task

from .conftest import noop_task


def bank_addr(system, unit_id, offset=0):
    return unit_id * system.addr_map.bank_bytes + offset


@pytest.mark.parametrize("g_xfer", [256, 192])
def test_home_range_matches_the_address_map(g_xfer):
    """A unit's home test agrees with ``AddressMap.unit_of_block``, also
    when blocks straddle two banks (192 B does not divide a bank)."""
    cfg = tiny_config(Design.O)
    system = NDPSystem(cfg.replace(comm=replace(cfg.comm, g_xfer_bytes=g_xfer)))
    amap = system.addr_map
    last = (amap.total_bytes - 1) // amap.block_bytes
    for unit in system.units:
        edge = unit.unit_id * amap.bank_bytes // amap.block_bytes
        for block in range(max(0, edge - 2), min(last, edge + 2) + 1):
            mine = amap.unit_of_block(block) == unit.unit_id
            assert unit.is_home(block) == mine, (unit.unit_id, block)
    assert not any(u.is_home(last + 1) or u.is_home(-1) for u in system.units)


class TestLocalExecution:
    def test_local_task_executes(self, tiny_system_b):
        sys_ = tiny_system_b
        sys_.seed_task(noop_task(bank_addr(sys_, 0)))
        sys_.run()
        assert sys_.units[0].tasks_executed == 1
        assert sys_.units[0].busy_cycles > 0
        assert sys_.tracker.finished

    def test_task_routed_to_home_unit(self, tiny_system_b):
        sys_ = tiny_system_b
        sys_.seed_task(noop_task(bank_addr(sys_, 5)))
        sys_.run()
        assert sys_.units[5].tasks_executed == 1
        assert sys_.units[0].tasks_executed == 0

    def test_child_task_crosses_banks(self, tiny_system_b):
        sys_ = tiny_system_b
        hops = []

        def hop(ctx, task):
            hops.append(ctx.unit_id)
            if len(hops) < 3:
                target = bank_addr(sys_, len(hops) * 3)
                ctx.enqueue_task("hop", task.ts, target, workload=5)

        sys_.registry.register("hop", hop)
        sys_.seed_task(Task(func="hop", ts=0,
                            data_addr=bank_addr(sys_, 0), workload=5))
        sys_.run()
        assert hops == [0, 3, 6]

    def test_remote_child_takes_longer_than_local(self):
        def run(dst_unit):
            system = NDPSystem(tiny_config(Design.B))

            def spawn_once(ctx, task):
                if task.args:
                    ctx.enqueue_task(
                        "spawn_once", task.ts,
                        bank_addr(system, dst_unit), workload=10,
                    )

            system.registry.register("spawn_once", spawn_once)
            system.seed_task(Task(
                func="spawn_once", ts=0, data_addr=bank_addr(system, 0),
                workload=10, args=(1,),
            ))
            system.run()
            return system.makespan

        assert run(dst_unit=1) > run(dst_unit=0)


class TestEpochs:
    def test_future_tasks_wait_for_epoch(self, tiny_system_b):
        sys_ = tiny_system_b
        order = []
        sys_.registry.register(
            "mark", lambda ctx, task: order.append(task.args[0])
        )
        sys_.seed_task(Task(func="mark", ts=1,
                            data_addr=bank_addr(sys_, 0), args=("late",)))
        sys_.seed_task(Task(func="mark", ts=0,
                            data_addr=bank_addr(sys_, 1), args=("early",)))
        sys_.run()
        assert order == ["early", "late"]

    def test_epoch_barrier_across_units(self, tiny_system_b):
        sys_ = tiny_system_b
        events = []

        def phase0(ctx, task):
            events.append(("p0", ctx.unit_id))
            ctx.enqueue_task("phase1", task.ts + 1, task.data_addr)

        sys_.registry.register("phase0", phase0)
        sys_.registry.register(
            "phase1", lambda ctx, task: events.append(("p1", ctx.unit_id))
        )
        for u in (0, 7, 15):
            sys_.seed_task(Task(
                func="phase0", ts=0, data_addr=bank_addr(sys_, u),
                workload=20 * (u + 1),
            ))
        sys_.run()
        phases = [e[0] for e in events]
        assert phases == ["p0", "p0", "p0", "p1", "p1", "p1"]


class TestMailboxStall:
    def test_core_blocks_when_mailbox_full(self):
        from dataclasses import replace

        # Design C: the host polls on a fixed interval, so a burst of
        # remote children reliably overflows a shrunken mailbox (bridges
        # would gather reactively and mask the stall).
        cfg = tiny_config(Design.C)
        cfg = cfg.replace(unit_mem=replace(cfg.unit_mem, mailbox_bytes=256))
        system = NDPSystem(cfg)

        def burst(ctx, task):
            for i in range(1, 9):
                ctx.enqueue_task("sink", task.ts,
                                 bank_addr(system, i), workload=5)

        system.registry.register("burst", burst)
        system.registry.register("sink", lambda ctx, task: None)
        system.seed_task(Task(func="burst", ts=0,
                              data_addr=bank_addr(system, 0)))
        system.run()
        assert system.stats.sum_counters(".mailbox_stall_events") >= 1
        assert sum(u.tasks_executed for u in system.units) == 9


class TestMetadataPaths:
    def test_schedule_lends_block_and_sets_islent(self, tiny_system_o):
        sys_ = tiny_system_o
        unit = sys_.units[0]
        for i in range(20):
            task = noop_task(bank_addr(sys_, 0, offset=i * 64), workload=50)
            sys_.tracker.task_created(0)
            unit.accept_task(task)
        unit.handle_schedule(budget=100)
        # isLent commits when the bridge gathers the bundle; until then
        # the block is held in the lend-pending set.
        assert len(unit._lend_pending) + unit.islent.lent_count >= 1
        # The lend produced at least one data message (it may already have
        # been gathered by a reactively triggered bridge round).
        assert sys_.tracker.data_messages_in_flight >= 1

    def test_borrowed_block_accepts_tasks(self, tiny_system_o):
        sys_ = tiny_system_o
        receiver = sys_.units[3]
        block = 0  # home unit 0
        msg = DataMessage(
            src_unit=0, dst_unit=3, block_id=block, block_bytes=256,
            home_unit=0,
        )
        sys_.tracker.message_departed(msg)
        receiver.deliver_data_message(msg)
        assert receiver.borrowed.contains(block)
        assert receiver.holds_block(block)

    def test_home_unit_without_block_does_not_hold(self, tiny_system_o):
        sys_ = tiny_system_o
        u = sys_.units[0]
        u.islent.set_lent(u._base_block)
        assert not u.holds_block(u._base_block)
        u.islent.clear_lent(u._base_block)
        assert u.holds_block(u._base_block)


def test_sketch_eviction_returns_reserved_tasks_to_the_queue_tail():
    """A 1-bucket, 1-way sketch: a second hot block decays the first one
    out, whose reserved tasks rejoin the main queue's tail in order."""
    cfg = tiny_config(Design.O)
    cfg = cfg.replace(
        sketch=replace(cfg.sketch, buckets=1, entries_per_bucket=1),
        # One chunk in the pool: the first block's chain holds 8 tasks
        # and later ones wait in the main queue.
        unit_mem=replace(cfg.unit_mem, reserved_queue_chunks=1),
    )
    system = NDPSystem(cfg)
    system.registry.register("noop", lambda ctx, task: None)
    unit = system.units[0]
    first, second = 0, 1  # two home blocks of unit 0, one sketch bucket
    block_bytes = cfg.comm.g_xfer_bytes

    def accept(block, workload):
        task = noop_task(block * block_bytes, workload=workload)
        system.tracker.task_created(0)
        unit.accept_task(task)
        return task

    # The first task starts at once; the next 8 fill the first block's
    # chain behind the busy core, and the last 2 overflow to the queue.
    tasks = [accept(first, 1) for _ in range(11)]
    reserved = tasks[1:9]
    assert unit.core_busy and unit.reserved.tasks_of(first) == reserved
    assert list(unit.queue) == tasks[9:]
    for _ in range(50):  # each decay of the light entry succeeds often
        before_queue, before_workload = list(unit.queue), unit.queue_workload
        task = accept(second, 16)
        tasks.append(task)
        if first not in unit.reserved:
            break
        assert not unit.sketch.contains(second)
    else:
        pytest.fail("the second block never decayed the first out")
    assert unit.sketch.contains(second) and not unit.sketch.contains(first)
    assert list(unit.queue) == before_queue + reserved
    assert unit.reserved.tasks_of(second) == [task]
    # Moving tasks between the queues leaves the queued work unchanged.
    assert unit.queue_workload == before_workload + task.workload_estimate
    system.run()
    assert unit.tasks_executed == len(tasks)
