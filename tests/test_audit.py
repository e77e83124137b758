"""The end-of-run lending-metadata checks in ``NDPSystem.finish``.

Every run ends by checking that the home isLent bitmaps and the
dataBorrowed tables agree (I1-I3).  ``finish()`` on a finished system
makes the checks again, so the fault tests corrupt a finished run's
metadata on purpose and expect the next ``finish()`` to name the fault.
"""

from dataclasses import replace

import pytest

from repro.apps import make_app
from repro.config import Design, tiny_config
from repro.messages import DataMessage
from repro.runtime.runner import run_app
from repro.sim import SimulationError


def finished_run(app_name="ll", design=Design.O):
    return run_app(make_app(app_name, scale=0.05, seed=13),
                   tiny_config(design)).system


def unlent_home_block(unit):
    """A block the unit's isLent bitmap tracks and does not mark lent,
    so (I2 holding) no unit holds it either."""
    base = unit.islent.base_block
    return next(
        block for block in range(base, base + unit.islent.capacity_blocks)
        if not unit.islent.is_lent(block)
    )


@pytest.mark.parametrize("app_name", ["ll", "tree", "bfs", "pr"])
def test_balanced_runs_pass_audit(app_name):
    system = finished_run(app_name)  # run() ended in finish()'s checks
    system.finish()


def test_work_stealing_runs_pass_audit():
    system = finished_run("wcc", Design.W)
    # Blocks are still out at the end, so I1-I3 had entries to check.
    assert any(unit.islent.lent for unit in system.units)
    system.finish()


def small_table_run(app_name, seed):
    """A W run whose units have eight-entry dataBorrowed tables."""
    cfg = tiny_config(Design.W, seed=seed)
    cfg = cfg.replace(sram=replace(cfg.sram, databorrowed_bytes=128))
    return run_app(make_app(app_name, scale=0.05, seed=seed), cfg).system


def test_unit_table_evictions_return_blocks_home():
    """A small unit table evicts borrowed blocks, and each victim must go
    home (Section VI-B): a victim that is dropped instead stays lent with
    no holder, which finish() rejects as I1.  At the default table size
    no other tier-1 run evicts from a unit."""
    system = small_table_run("ll", 13)
    assert sum(unit.borrowed.evictions for unit in system.units) > 0


def test_block_in_link_transit_at_the_end_is_excused():
    """This run ends with four returning blocks in flight: three sit in
    bridge buffers and one is on a link, in no container at all.  Each
    is lent at home with no holder; the tracker's per-block count of
    data messages in flight excuses all four."""
    system = small_table_run("wcc", 2)
    resident = [
        msg for _, msgs in system._resident() for msg in msgs
        if isinstance(msg, DataMessage)
    ]
    assert (len(resident), system.tracker.data_messages_in_flight) == (3, 4)


def test_unbalanced_designs_trivially_pass():
    system = finished_run("tree", Design.B)
    assert not any(unit.islent.lent for unit in system.units)
    system.finish()


def test_audit_detects_double_borrow():
    system = finished_run()
    # Two units claim the same block.
    block = unlent_home_block(system.units[3])
    system.units[3].islent.set_lent(block)
    system.units[0].borrowed.insert(block, 0, 3)
    system.units[1].borrowed.insert(block, 0, 3)
    with pytest.raises(
        SimulationError,
        match=rf"I1: block {block} is lent by unit3 but held by 2 units",
    ):
        system.finish()


def test_audit_detects_lent_block_without_holder():
    system = finished_run()
    block = unlent_home_block(system.units[3])
    system.units[3].islent.set_lent(block)  # lent, but nobody holds it
    with pytest.raises(
        SimulationError,
        match=rf"I1: block {block} is lent by unit3 but held by 0 units",
    ):
        system.finish()


def test_audit_detects_unmarked_borrow():
    system = finished_run()
    block = unlent_home_block(system.units[5])
    system.units[2].borrowed.insert(block, 0, 5)  # home never marked lent
    with pytest.raises(
        SimulationError,
        match=rf"I2: block {block} is held by unit2 but its home unit5",
    ):
        system.finish()


def test_audit_detects_stale_bridge_entry():
    system = finished_run()
    bridge = system.fabric.rank_bridges[0]
    bridge.borrowed.insert(999999, 7, 1)  # nobody holds this block
    with pytest.raises(
        SimulationError,
        match=r"I3: bridge0 maps block 999999 to unit7",
    ):
        system.finish()


def test_block_whose_data_message_is_in_flight_is_excused():
    """A returning block sits in a bridge buffer at the end of a run (bfs
    on W at 128 units, seed 17, ends so): lent at home, held by nobody."""
    system = finished_run()
    home = system.units[5]
    block = unlent_home_block(home)
    home.islent.set_lent(block)
    with pytest.raises(SimulationError, match="I1"):
        system.finish()
    msg = DataMessage(src_unit=2, dst_unit=5, block_id=block,
                      returning=True, home_unit=5)
    system.tracker.message_departed(msg)
    assert system.fabric.rank_bridges[0].scatter_buffers[5].push(msg)
    system.finish()
