"""Protocol-order tests: a lend's data block travels before its tasks."""

from repro.bridge.level1 import Level1Bridge
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


def spy_router(monkeypatch, bridge, record):
    """Call ``record(msg)`` for each message ``bridge``'s router sees.

    The bridge is slotted, so the spy patches the class and records only
    for that one bridge before calling the original router.
    """
    original = Level1Bridge._route_one

    def spy(self, msg):
        if self is bridge:
            record(msg)
        return original(self, msg)

    monkeypatch.setattr(Level1Bridge, "_route_one", spy)


def wire_order(system, monkeypatch):
    """Record the order messages pass the level-1 router."""
    seen = []

    def record(msg):
        if isinstance(msg, DataMessage):
            seen.append(("data", msg.block_id))
        elif isinstance(msg, TaskMessage) and msg.lb_assigned:
            seen.append(("task", msg.task.data_addr // 256))

    spy_router(monkeypatch, system.fabric.rank_bridges[0], record)
    return seen


def test_data_message_precedes_its_tasks_on_the_wire(monkeypatch):
    system, unit = giver_with_hot_block()
    seen = wire_order(system, monkeypatch)
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


def test_bundle_workload_matches_task_sum(monkeypatch):
    system, unit = giver_with_hot_block()
    bundles = {}
    tasks = {}

    def record(msg):
        if isinstance(msg, DataMessage) and not msg.returning:
            bundles[msg.block_id] = msg.bundle_workload
        elif isinstance(msg, TaskMessage) and msg.lb_assigned:
            block = msg.task.data_addr // 256
            tasks[block] = tasks.get(block, 0) + msg.task.workload_estimate

    spy_router(monkeypatch, system.fabric.rank_bridges[0], record)
    unit.handle_schedule(budget=800)
    system.run()
    assert bundles
    for block, workload in bundles.items():
        assert tasks.get(block, 0) == workload


def test_lend_pending_blocks_second_schedule(monkeypatch):
    system, unit = giver_with_hot_block()
    data_blocks = []

    def record(msg):
        if isinstance(msg, DataMessage) and not msg.returning:
            data_blocks.append(msg.block_id)

    spy_router(monkeypatch, system.fabric.rank_bridges[0], record)
    unit.handle_schedule(budget=800)
    unit.handle_schedule(budget=800)
    system.run()
    # No block is bundled twice while its first bundle is in flight.
    assert len(data_blocks) == len(set(data_blocks))
