"""DDR command encoding for the bridge protocol (Section V-B).

NDPBridge deliberately reuses *existing* DDR commands on the existing C/A
links.  Its four bridge operations are encoded as ordinary commands that
target reserved row/column addresses outside the physical array range
(``R_ROW`` / ``R_COL``); the unit controller's command handler recognizes
the reserved addresses and interprets the command:

=============  =================  =========================
bridge op      underlying DDR     target
=============  =================  =========================
STATE-GATHER   ACTIVATE           R_ROW
GATHER         READ               R_COL
SCATTER        WRITE              R_COL
SCHEDULE       ACTIVATE           R_ROW prefix || budget
=============  =================  =========================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class DDRCommand(enum.Enum):
    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    PRECHARGE = "PRE"


class BridgeOp(enum.Enum):
    STATE_GATHER = "STATE-GATHER"
    GATHER = "GATHER"
    SCATTER = "SCATTER"
    SCHEDULE = "SCHEDULE"


# Reserved addresses outside the physical array (Section V-B).  Real DDR4
# rows/columns are < 2**17 / 2**10; anything at or above these markers is a
# bridge-reserved address.
R_ROW = 1 << 20
R_COL = 1 << 12
SCHEDULE_ROW_PREFIX = 1 << 21


@dataclass(frozen=True)
class EncodedCommand:
    """A DDR command as it appears on the C/A link."""

    ddr: DDRCommand
    row: Optional[int] = None
    col: Optional[int] = None


class CommandCodec:
    """Encode bridge operations into DDR commands and decode them back.

    Both the bridge's command generator and the unit controller's command
    handler use the same codec, so a round-trip is exact by construction --
    and is verified by tests.
    """

    @staticmethod
    def encode(op: BridgeOp, budget: int = 0) -> EncodedCommand:
        if op is BridgeOp.STATE_GATHER:
            return EncodedCommand(DDRCommand.ACTIVATE, row=R_ROW)
        if op is BridgeOp.GATHER:
            return EncodedCommand(DDRCommand.READ, col=R_COL)
        if op is BridgeOp.SCATTER:
            return EncodedCommand(DDRCommand.WRITE, col=R_COL)
        if op is BridgeOp.SCHEDULE:
            if budget < 0:
                raise ValueError("SCHEDULE budget must be non-negative")
            return EncodedCommand(
                DDRCommand.ACTIVATE, row=SCHEDULE_ROW_PREFIX + budget
            )
        raise ValueError(f"unknown bridge op {op}")

    @staticmethod
    def decode(cmd: EncodedCommand) -> "DecodedCommand":
        if cmd.ddr is DDRCommand.ACTIVATE and cmd.row is not None:
            if cmd.row >= SCHEDULE_ROW_PREFIX:
                return DecodedCommand(
                    BridgeOp.SCHEDULE, budget=cmd.row - SCHEDULE_ROW_PREFIX
                )
            if cmd.row == R_ROW:
                return DecodedCommand(BridgeOp.STATE_GATHER)
        if cmd.ddr is DDRCommand.READ and cmd.col == R_COL:
            return DecodedCommand(BridgeOp.GATHER)
        if cmd.ddr is DDRCommand.WRITE and cmd.col == R_COL:
            return DecodedCommand(BridgeOp.SCATTER)
        return DecodedCommand(None)


@dataclass(frozen=True)
class DecodedCommand:
    """Result of the unit controller decoding a C/A command."""

    op: Optional[BridgeOp]
    budget: int = 0

    @property
    def is_bridge_command(self) -> bool:
        return self.op is not None
