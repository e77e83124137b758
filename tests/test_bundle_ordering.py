"""Protocol-order tests: a lend's data block travels before its tasks."""

from repro.config import Design, tiny_config
from repro.messages import DataMessage, TaskMessage
from repro.runtime.system import NDPSystem

from .conftest import noop_task


def giver_with_hot_block():
    """A unit loaded with enough hot, profitable work to lend."""
    system = NDPSystem(tiny_config(Design.O))
    system.registry.register("noop", lambda ctx, task: None)
    unit = system.units[0]
    for i in range(12):
        t = noop_task(0 + (i % 4) * 64, workload=400)
        system.tracker.task_created(0)
        unit.accept_task(t)
    for i in range(12):
        t = noop_task(4096 + i * 256, workload=400)
        system.tracker.task_created(0)
        unit.accept_task(t)
    return system, unit


def wire_order(system):
    """Record the order messages pass the level-1 router."""
    bridge = system.fabric.rank_bridges[0]
    seen = []
    original = bridge._route_one

    def spy(msg):
        if isinstance(msg, DataMessage):
            seen.append(("data", msg.block_id))
        elif isinstance(msg, TaskMessage) and msg.lb_assigned:
            seen.append(("task", msg.task.data_addr // 256))
        return original(msg)

    bridge._route_one = spy
    return seen


def test_data_message_precedes_its_tasks_on_the_wire():
    system, unit = giver_with_hot_block()
    seen = wire_order(system)
    unit.handle_schedule(budget=800)
    system.run()
    bundles = [b for kind, b in seen if kind == "data"]
    assert bundles, "no bundle was produced"
    arrived_data = set()
    for kind, block in seen:
        if kind == "data":
            arrived_data.add(block)
        else:
            assert block in arrived_data, (
                "an lb task passed the router before its block's data"
            )


def test_bundle_workload_matches_task_sum():
    system, unit = giver_with_hot_block()
    bridge = system.fabric.rank_bridges[0]
    bundles = {}
    tasks = {}
    original = bridge._route_one

    def spy(msg):
        if isinstance(msg, DataMessage) and not msg.returning:
            bundles[msg.block_id] = msg.bundle_workload
        elif isinstance(msg, TaskMessage) and msg.lb_assigned:
            block = msg.task.data_addr // 256
            tasks[block] = tasks.get(block, 0) + msg.task.workload_estimate
        return original(msg)

    bridge._route_one = spy
    unit.handle_schedule(budget=800)
    system.run()
    assert bundles
    for block, workload in bundles.items():
        assert tasks.get(block, 0) == workload


def test_lend_pending_blocks_second_schedule():
    system, unit = giver_with_hot_block()
    data_blocks = []
    bridge = system.fabric.rank_bridges[0]
    original = bridge._route_one

    def spy(msg):
        if isinstance(msg, DataMessage) and not msg.returning:
            data_blocks.append(msg.block_id)
        return original(msg)

    bridge._route_one = spy
    unit.handle_schedule(budget=800)
    unit.handle_schedule(budget=800)
    system.run()
    # No block is bundled twice while its first bundle is in flight.
    assert len(data_blocks) == len(set(data_blocks))
