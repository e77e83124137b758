"""Integration tests of the load-balancing workflow (paper Fig. 6).

These drive the five steps explicitly on a small system: SCHEDULE with a
budget, giver selection, bridge assignment + metadata update, receiver
delivery, and eventual execution at the receiver.
"""

from repro.config import Design, tiny_config
from repro.runtime.system import NDPSystem

from .conftest import noop_task


def loaded_system(n_tasks=60, workload=300, design=Design.O):
    """A system with all work piled on unit 0."""
    system = NDPSystem(tiny_config(design))
    system.registry.register("noop", lambda ctx, task: None)
    for i in range(n_tasks):
        system.seed_task(noop_task(i * 64, workload=workload))
    return system


def test_workflow_moves_work_to_idle_units():
    system = loaded_system()
    system.run()
    executed_elsewhere = sum(
        u.tasks_executed for u in system.units if u.unit_id != 0
    )
    assert executed_elsewhere > 0, "no tasks migrated off the hot unit"
    lent = system.stats.sum_counters(".blocks_lent")
    assert lent > 0


def test_workflow_updates_all_metadata_levels():
    system = loaded_system()
    ran_checks = {"unit": False, "bridge": False}

    # Sample metadata mid-run by hooking task completion.
    orig = system.tracker.task_completed

    def spy(ts):
        bridge = system.fabric.rank_bridges[0]
        if len(bridge.borrowed):
            ran_checks["bridge"] = True
            for entry in bridge.borrowed.entries():
                home = system.units[entry.home_unit]
                pending = entry.block_id in home._lend_pending
                if home.islent.is_lent(entry.block_id) or pending:
                    ran_checks["unit"] = True
        orig(ts)

    system.tracker.task_completed = spy
    system.run()
    assert ran_checks["bridge"], "bridge dataBorrowed never populated"
    assert ran_checks["unit"], "home isLent never agreed with the bridge"


def test_borrowed_tasks_execute_at_receiver():
    system = loaded_system()
    system.run()
    # Some receiver actually holds (or held) borrowed blocks.
    borrowed_total = system.stats.sum_counters(".blocks_borrowed")
    assert borrowed_total > 0


def test_budget_zero_is_noop():
    system = loaded_system(design=Design.O)
    unit = system.units[0]
    unit.handle_schedule(0)
    assert not unit._lend_pending
    assert system.tracker.data_messages_in_flight == 0


def test_giver_without_queue_gives_nothing():
    system = NDPSystem(tiny_config(Design.O))
    system.registry.register("noop", lambda ctx, task: None)
    unit = system.units[0]
    unit.handle_schedule(500)
    assert not unit._lend_pending


def test_work_stealing_design_also_balances():
    system = loaded_system(design=Design.W)
    system.run()
    executed_elsewhere = sum(
        u.tasks_executed for u in system.units if u.unit_id != 0
    )
    assert executed_elsewhere > 0


def test_balancing_reduces_makespan_on_skew():
    balanced = loaded_system(design=Design.O)
    balanced.run()
    static = loaded_system(design=Design.B)
    static.run()
    assert balanced.makespan < static.makespan
