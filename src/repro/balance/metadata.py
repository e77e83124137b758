"""Migrated-data metadata (Section VI-B).

Two structures track where blocks have gone:

* ``isLent`` -- a bitmap in each home unit, one bit per ``G_xfer`` block,
  set while the block is lent to another unit.  Its SRAM capacity (2 kB by
  default) bounds how much of the bank is *lendable*; blocks beyond the
  tracked range simply cannot be scheduled out, which is exactly the
  capacity/performance trade-off Fig. 16(a) sweeps.
* ``dataBorrowed`` -- a set-associative LRU table.  In a unit it maps an
  original block address to the block's remapped address in the local
  borrowed-data region; in a bridge it maps the block to the receiver unit
  id.  The two levels are kept inclusive by the scheduler.  An LRU
  replacement evicts a borrowed block, which must then be returned home.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Set


class IsLentBitmap:
    """One bit per home block: is it currently lent out?"""

    #: bits of SRAM per tracked block
    BITS_PER_BLOCK = 1

    def __init__(self, sram_bytes: int, base_block: int, scale: float = 1.0):
        if sram_bytes <= 0:
            raise ValueError("bitmap SRAM size must be positive")
        self.capacity_blocks = max(1, int(sram_bytes * 8 * scale))
        self.base_block = base_block
        #: The lent block ids.  A unit's per-task ownership test reads it
        #: directly; only set_lent/clear_lent change it.
        self.lent: Set[int] = set()

    def tracks(self, block_id: int) -> bool:
        """Is the block within the bitmap's addressable range?"""
        return 0 <= block_id - self.base_block < self.capacity_blocks

    def is_lent(self, block_id: int) -> bool:
        return block_id in self.lent

    def set_lent(self, block_id: int) -> None:
        if not self.tracks(block_id):
            raise ValueError(
                f"block {block_id} outside isLent range "
                f"[{self.base_block}, {self.base_block + self.capacity_blocks})"
            )
        self.lent.add(block_id)

    def clear_lent(self, block_id: int) -> None:
        self.lent.discard(block_id)

    @property
    def lent_count(self) -> int:
        return len(self.lent)


@dataclass
class BorrowEntry:
    """One dataBorrowed entry: original block -> location."""

    block_id: int
    value: int            # remapped address (unit table) or receiver id (bridge)
    home_unit: int


class DataBorrowedTable:
    """Set-associative LRU table of borrowed blocks.

    ``capacity_bytes / ENTRY_BYTES`` entries are organized into sets of
    ``ways`` entries each; LRU within a set.  ``insert`` returns the evicted
    entry (if any) so the caller can initiate the block's return home --
    the behaviour Section VI-B specifies for replacements.
    """

    ENTRY_BYTES = 16

    def __init__(self, capacity_bytes: int, ways: int, scale: float = 1.0):
        if capacity_bytes <= 0 or ways <= 0:
            raise ValueError("table capacity and ways must be positive")
        total_entries = max(ways, int(capacity_bytes * scale) // self.ENTRY_BYTES)
        self.ways = ways
        self.num_sets = max(1, total_entries // ways)
        # Each set is an OrderedDict used as an LRU list (front = LRU),
        # created on its first insert; ``None`` marks a set never filled.
        self._sets: List[Optional[OrderedDict]] = [None] * self.num_sets
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity_entries(self) -> int:
        return self.num_sets * self.ways

    def lookup(self, block_id: int) -> Optional[BorrowEntry]:
        s = self._sets[block_id % self.num_sets]
        if s is not None:
            entry = s.get(block_id)
            if entry is not None:
                s.move_to_end(block_id)  # most recently used
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def contains(self, block_id: int) -> bool:
        s = self._sets[block_id % self.num_sets]
        return s is not None and block_id in s

    def insert(
        self, block_id: int, value: int, home_unit: int
    ) -> Optional[BorrowEntry]:
        """Insert/update an entry; returns the LRU victim if one was evicted."""
        i = block_id % self.num_sets
        s = self._sets[i]
        if s is None:
            s = self._sets[i] = OrderedDict()
        elif block_id in s:
            s[block_id].value = value
            s.move_to_end(block_id)
            return None
        victim: Optional[BorrowEntry] = None
        if len(s) >= self.ways:
            _, victim = s.popitem(last=False)
            self.evictions += 1
        s[block_id] = BorrowEntry(block_id, value, home_unit)
        return victim

    def remove(self, block_id: int) -> Optional[BorrowEntry]:
        s = self._sets[block_id % self.num_sets]
        return None if s is None else s.pop(block_id, None)

    def entries(self) -> List[BorrowEntry]:
        out: List[BorrowEntry] = []
        for s in self._sets:
            if s is not None:
                out.extend(s.values())
        return out

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)
