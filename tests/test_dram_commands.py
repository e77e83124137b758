"""Tests for the reserved-address DDR command codec (Section V-B)."""

import pytest

from repro.dram import (
    BridgeOp,
    CommandCodec,
    DDRCommand,
    EncodedCommand,
    R_COL,
    R_ROW,
)


@pytest.mark.parametrize("op", list(BridgeOp))
def test_round_trip(op):
    encoded = CommandCodec.encode(op, budget=37)
    decoded = CommandCodec.decode(encoded)
    assert decoded.op is op
    if op is BridgeOp.SCHEDULE:
        assert decoded.budget == 37


def test_state_gather_is_activate_to_reserved_row():
    enc = CommandCodec.encode(BridgeOp.STATE_GATHER)
    assert enc.ddr is DDRCommand.ACTIVATE
    assert enc.row == R_ROW


def test_gather_scatter_use_reserved_column():
    g = CommandCodec.encode(BridgeOp.GATHER)
    s = CommandCodec.encode(BridgeOp.SCATTER)
    assert g.ddr is DDRCommand.READ and g.col == R_COL
    assert s.ddr is DDRCommand.WRITE and s.col == R_COL


def test_schedule_budget_encoding():
    # A budget with bit 21 set once decoded 2**21 too small; bfs on W at
    # 128 units and scale 4 issues 2,168,096.
    for budget in (0, 1, 255, 65535, 2**21 - 1, 2**21, 2_168_096,
                   4_811_006):
        enc = CommandCodec.encode(BridgeOp.SCHEDULE, budget=budget)
        assert CommandCodec.decode(enc).budget == budget


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        CommandCodec.encode(BridgeOp.SCHEDULE, budget=-1)


def test_normal_commands_do_not_decode_as_bridge_ops():
    normal = EncodedCommand(DDRCommand.READ, col=17)
    assert not CommandCodec.decode(normal).is_bridge_command
    normal_act = EncodedCommand(DDRCommand.ACTIVATE, row=1234)
    assert not CommandCodec.decode(normal_act).is_bridge_command
