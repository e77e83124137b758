"""Per-unit L1 data cache model (Table I: 64 kB, 4-way, 64 B lines).

A task's data access first probes the cache; hits cost a couple of cycles
of SRAM latency instead of a DRAM bank access.  Hot data elements (the
very elements that attract many tasks and drive load imbalance) therefore
execute from SRAM after the first touch -- without this, a hub vertex
would pay a full DRAM round trip per tiny accumulate task, which no real
NDP unit with a cache/scratchpad does.

The model is a set-associative LRU tag array; only hit/miss behaviour is
tracked (contents live in the application's Python objects).  A set is
created on its first fill: a run touches a fraction of the sets, so the
array starts as one list of ``None`` rather than ``num_sets`` empty sets.
A filled set is a plain list of line numbers in LRU order, least recent
first: at most ``ways`` entries, so a membership test or a move is a
short scan, and a list costs a fraction of a dict's memory.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import SystemConfig

#: SRAM hit latency in core cycles.
HIT_LATENCY = 2


class L1Cache:
    """Set-associative LRU tag store; ``None`` marks a set never filled."""

    def __init__(self, capacity_bytes: int, ways: int, line_bytes: int = 64):
        if capacity_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        self.line_bytes = line_bytes
        self.ways = ways
        total_lines = max(ways, capacity_bytes // line_bytes)
        self.num_sets = max(1, total_lines // ways)
        self._sets: List[Optional[List[int]]] = [None] * self.num_sets
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_config(cls, config: SystemConfig) -> "L1Cache":
        return cls(config.sram.l1d_kb * 1024, ways=4)

    def access(self, addr: int) -> bool:
        """Probe (and fill) the line holding ``addr``; True on a hit."""
        line = addr // self.line_bytes
        i = line % self.num_sets
        s = self._sets[i]
        if s is None:
            self._sets[i] = [line]
        elif line in s:
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            self.hits += 1
            return True
        else:
            if len(s) >= self.ways:
                del s[0]
            s.append(line)
        self.misses += 1
        return False

    def invalidate(self, addr: int) -> None:
        """Drop the line holding ``addr`` (block migrated away)."""
        line = addr // self.line_bytes
        s = self._sets[line % self.num_sets]
        if s is not None and line in s:
            s.remove(line)

    def invalidate_range(self, base: int, nbytes: int) -> None:
        for addr in range(base, base + nbytes, self.line_bytes):
            self.invalidate(addr)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
