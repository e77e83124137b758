"""DRAM bank timing model with an integrated access arbiter.

Each bank is a single-server resource with an open-row buffer.  Accesses
come from two masters -- the local NDP core's DMA and the upper-level
bridge's gather/scatter traffic -- and the *access arbiter* (Section V-A)
serializes them at the bank.  We model this by a busy-until horizon: an
access starts no earlier than the previous one finished, pays row timing
(tRP on a conflict + tRCD on an activation + tCAS), then streams data at
the requesting master's bandwidth.

The model follows the simplifications the paper inherits from [15]: no
refresh, closed tFAW, etc.; those affect all designs equally and do not
change relative results.
"""

from __future__ import annotations

import math
from typing import Optional

from ..config import SystemConfig
from ..sim import Simulator, StatsRegistry


class DRAMBank:
    """One bank: row-buffer state plus a busy horizon used as the arbiter."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatsRegistry,
        unit_id: int,
    ):
        self.sim = sim
        self.config = config
        self.unit_id = unit_id
        self.busy_until = 0
        self.open_row: Optional[int] = None
        self._last_was_write = False
        # Timings are fixed by the config: resolve them once, not per access.
        self._t_wtr = config.dram.cycles(config.dram.t_wtr_ns, config.cycle_ns)
        self._t_rp = config.t_rp_cycles
        self._t_rcd = config.t_rcd_cycles
        self._t_cas = config.t_cas_cycles
        self._row_bytes = config.dram.row_bytes
        scope = f"bank{unit_id}"
        self._reads = stats.counter(scope, "reads_64bit")
        self._writes = stats.counter(scope, "writes_64bit")
        self._comm_words = stats.counter(scope, "comm_words_64bit")
        self._local_words = stats.counter(scope, "local_words_64bit")
        self._row_hits = stats.counter(scope, "row_hits")
        self._row_misses = stats.counter(scope, "row_misses")
        self._core_accesses = stats.counter(scope, "core_accesses")
        self._bridge_accesses = stats.counter(scope, "bridge_accesses")
        self._busy_cycles = stats.counter(scope, "busy_cycles")

    def access(
        self,
        now: int,
        addr: int,
        nbytes: int,
        is_write: bool,
        bytes_per_cycle: float,
        from_bridge: bool = False,
    ) -> int:
        """Reserve the bank for one access and return its finish cycle.

        ``bytes_per_cycle`` is the data-path bandwidth of the requesting
        master (the core's DMA or the chip's DQ slice toward the bridge).
        """
        if nbytes <= 0:
            raise ValueError("access size must be positive")
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        row = addr // self._row_bytes
        latency = 0
        if self._last_was_write and not is_write:
            latency += self._t_wtr
        self._last_was_write = is_write
        if self.open_row != row:
            if self.open_row is not None:
                latency += self._t_rp
            latency += self._t_rcd
            self.open_row = row
            self._row_misses.add()
        else:
            self._row_hits.add()
        latency += self._t_cas
        cycles = math.ceil(nbytes / bytes_per_cycle)
        latency += cycles if cycles > 1 else 1
        finish = start + latency
        self.busy_until = finish
        self._busy_cycles.add(latency)

        words = -(-nbytes // 8)  # at least 1: nbytes is positive
        if is_write:
            self._writes.add(words)
        else:
            self._reads.add(words)
        if from_bridge:
            self._bridge_accesses.add()
            self._comm_words.add(words)
        else:
            self._core_accesses.add()
            self._local_words.add(words)
        return finish

    # convenience views for energy accounting ------------------------------
    @property
    def total_reads_64bit(self) -> int:
        return self._reads.value

    @property
    def total_writes_64bit(self) -> int:
        return self._writes.value
