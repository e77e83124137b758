"""DRAM hierarchy model: addressing, banks, and DDR command encoding."""

from .address import AddressMap, UnitCoord
from .bank import DRAMBank
from .commands import (
    BridgeOp,
    CommandCodec,
    DDRCommand,
    DecodedCommand,
    EncodedCommand,
    R_COL,
    R_ROW,
    SCHEDULE_ROW_PREFIX,
)

__all__ = [
    "AddressMap",
    "UnitCoord",
    "DRAMBank",
    "BridgeOp",
    "CommandCodec",
    "DDRCommand",
    "DecodedCommand",
    "EncodedCommand",
    "R_COL",
    "R_ROW",
    "SCHEDULE_ROW_PREFIX",
]
