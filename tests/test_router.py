"""Direct unit tests of the level-1 message router."""

import pytest

from repro.bridge.level1 import UP
from repro.config import Design, tiny_config
from repro.messages import DataMessage, TaskMessage
from repro.runtime.system import NDPSystem
from repro.runtime.task import Task


@pytest.fixture
def system():
    sys_ = NDPSystem(tiny_config(Design.O))
    sys_.registry.register("noop", lambda ctx, task: None)
    return sys_


@pytest.fixture
def bridge(system):
    return system.fabric.rank_bridges[0]


def task_msg(system, dst_unit, bounces=0, lb=False):
    addr = dst_unit * system.addr_map.bank_bytes + 512
    return TaskMessage(
        src_unit=0, dst_unit=dst_unit,
        task=Task(func="noop", ts=0, data_addr=addr, workload=4),
        bounces=bounces, lb_assigned=lb,
    )


def test_task_routes_to_home_scatter_buffer(system, bridge):
    msg = task_msg(system, dst_unit=5)
    system.tracker.task_created(0)
    system.tracker.message_departed(msg)
    bridge._route_one(msg)
    assert len(bridge.scatter_buffers[5]) == 1
    assert 5 in bridge._scatter_pending


def test_task_follows_borrow_entry(system, bridge):
    msg = task_msg(system, dst_unit=5)
    block = msg.task.data_addr // 256
    bridge.borrowed.insert(block, 11, 5)
    bridge._route_one(msg)
    assert len(bridge.scatter_buffers[11]) == 1
    assert msg.dst_unit == 11


def test_returning_data_clears_entry_and_goes_home(system, bridge):
    block = (3 * system.addr_map.bank_bytes + 256) // 256
    bridge.borrowed.insert(block, 9, 3)
    msg = DataMessage(
        src_unit=9, dst_unit=3, block_id=block, block_bytes=256,
        returning=True, home_unit=3,
    )
    bridge._route_one(msg)
    assert bridge.borrowed.lookup(block) is None
    assert len(bridge.scatter_buffers[3]) == 1


def test_lb_pending_uses_assignment_queue(system, bridge):
    from repro.balance.policy import SchedulePlan

    giver = system.units[4]
    plan = SchedulePlan(giver=4, budget=50, receivers=[(12, 50)])
    bridge._issue_schedule(plan)
    block = (4 * system.addr_map.bank_bytes) // 256
    msg = DataMessage(
        src_unit=4, dst_unit=None, block_id=block, block_bytes=256,
        lb_pending=True, bundle_workload=50, home_unit=4,
    )
    bridge._route_data(msg)
    assert msg.dst_unit == 12
    assert bridge.borrowed.lookup(block).value == 12
    # The home's isLent committed atomically with the entry.
    assert system.units[4].islent.is_lent(block)


def test_lb_pending_without_assignment_falls_back(system, bridge):
    # Populate a snapshot so the fallback receiver can be chosen.
    bridge.last_snapshot = {
        u.unit_id: u.collect_state() for u in bridge.units
    }
    block = (4 * system.addr_map.bank_bytes) // 256
    msg = DataMessage(
        src_unit=4, dst_unit=None, block_id=block, block_bytes=256,
        lb_pending=True, bundle_workload=10, home_unit=4,
    )
    bridge._route_data(msg)
    assert msg.dst_unit is not None and msg.dst_unit != UP
    assert bridge.borrowed.lookup(block) is not None


def test_bounced_task_without_entry_goes_home_when_no_l2(system, bridge):
    assert not system.has_level2
    msg = task_msg(system, dst_unit=2, bounces=1)
    bridge._route_one(msg)
    # Single-rank system: nowhere to go but back to the home unit.
    assert len(bridge.scatter_buffers[2]) == 1


def test_backup_preserves_per_destination_fifo(system, bridge):
    # Fill unit 7's scatter buffer to capacity (1 kB = 16 task frames).
    for _ in range(16):
        bridge._route_one(task_msg(system, dst_unit=7))
    overflow = task_msg(system, dst_unit=7)
    bridge._route_one(overflow)
    assert bridge._backup_bytes > 0
    # Another message for 7 must also queue behind it, even though the
    # scatter buffer may have space later.
    second = task_msg(system, dst_unit=7)
    bridge._route_one(second)
    assert bridge._backup[7][0] is overflow
    assert bridge._backup[7][1] is second
    # But a message for another unit flows directly.
    bridge._route_one(task_msg(system, dst_unit=3))
    assert len(bridge.scatter_buffers[3]) == 1
