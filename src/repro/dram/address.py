"""Physical address mapping across the DRAM hierarchy.

Data-local execution (Section II-B) means every NDP unit owns a contiguous
slice of the physical address space: the 64 MB of its bank.  The mapper
converts between flat byte addresses, unit ids, and hierarchical
(channel, rank, chip, bank) coordinates, and chunks addresses into
``G_xfer``-sized blocks -- the granularity of message transfer and of load
balancing (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..config import SystemConfig, TopologyConfig


@dataclass(frozen=True)
class UnitCoord:
    """Hierarchical coordinates of an NDP unit (one per bank)."""

    channel: int
    rank: int        # rank index within its channel
    chip: int
    bank: int        # bank index within its chip

    @property
    def global_rank(self) -> Tuple[int, int]:
        return (self.channel, self.rank)


class AddressMap:
    """Bidirectional mapping between addresses, units and coordinates."""

    def __init__(self, config: SystemConfig):
        self.topology: TopologyConfig = config.topology
        self.bank_bytes = self.topology.bank_capacity_mb * 1024 * 1024
        self.block_bytes = config.comm.g_xfer_bytes
        self.total_units = self.topology.total_units
        self.total_bytes = self.total_units * self.bank_bytes
        self.rank_bytes = self.topology.banks_per_rank * self.bank_bytes

    # -- unit id <-> coordinates ------------------------------------------
    def coord_of_unit(self, unit_id: int) -> UnitCoord:
        if not 0 <= unit_id < self.total_units:
            raise ValueError(f"unit id {unit_id} out of range")
        t = self.topology
        bank = unit_id % t.banks_per_chip
        rest = unit_id // t.banks_per_chip
        chip = rest % t.chips_per_rank
        rest //= t.chips_per_rank
        rank = rest % t.ranks_per_channel
        channel = rest // t.ranks_per_channel
        return UnitCoord(channel=channel, rank=rank, chip=chip, bank=bank)

    def unit_of_coord(self, coord: UnitCoord) -> int:
        t = self.topology
        return (
            ((coord.channel * t.ranks_per_channel + coord.rank)
             * t.chips_per_rank + coord.chip)
            * t.banks_per_chip + coord.bank
        )

    def rank_of_unit(self, unit_id: int) -> int:
        """Global rank index (0 .. ranks-1) of a unit."""
        return unit_id // self.topology.banks_per_rank

    def units_in_rank(self, global_rank: int) -> range:
        per = self.topology.banks_per_rank
        return range(global_rank * per, (global_rank + 1) * per)

    def channel_of_rank(self, global_rank: int) -> int:
        return global_rank // self.topology.ranks_per_channel

    # -- byte addresses ----------------------------------------------------
    def unit_of_addr(self, addr: int) -> int:
        if not 0 <= addr < self.total_bytes:
            raise ValueError(f"address {addr:#x} out of range")
        return addr // self.bank_bytes

    def bank_offset(self, addr: int) -> int:
        return addr % self.bank_bytes

    def block_of_addr(self, addr: int) -> int:
        """Global block id of the G_xfer-sized block containing ``addr``."""
        return addr // self.block_bytes

    def block_base(self, block_id: int) -> int:
        return block_id * self.block_bytes

    def unit_of_block(self, block_id: int) -> int:
        """Unit holding the block's first byte (``unit_of_addr``'s
        arithmetic, made here)."""
        addr = block_id * self.block_bytes
        if not 0 <= addr < self.total_bytes:
            raise ValueError(f"address {addr:#x} out of range")
        return addr // self.bank_bytes

    def rank_of_block(self, block_id: int) -> int:
        """Global rank of the unit holding the block's first byte."""
        addr = block_id * self.block_bytes
        if not 0 <= addr < self.total_bytes:
            raise ValueError(f"address {addr:#x} out of range")
        return addr // self.rank_bytes

    def same_chip(self, unit_a: int, unit_b: int) -> bool:
        """Do two units live in the same physical DRAM chip?  (RowClone.)"""
        ca, cb = self.coord_of_unit(unit_a), self.coord_of_unit(unit_b)
        return (ca.channel, ca.rank, ca.chip) == (cb.channel, cb.rank, cb.chip)

    def same_rank(self, unit_a: int, unit_b: int) -> bool:
        return self.rank_of_unit(unit_a) == self.rank_of_unit(unit_b)
