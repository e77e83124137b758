"""RowClone-based intra-chip communication (design R, Table II).

RowClone [70] uses the data bus shared by all banks inside one DRAM chip
to copy data bank-to-bank without leaving the chip.  Design R accelerates
messages whose source and destination banks share a chip this way; all
other messages fall back to host forwarding exactly as design C.

Model: each chip gets an internal-bus link.  A same-chip message bypasses
the mailbox entirely (RowClone is a single in-DRAM operation) and pays the
bus's fixed row-copy latency plus serialization; both banks are reserved
for the copy.  Inter-chip messages use the inherited host poll path.
No load balancing is possible (the paper notes RowClone's modifications
cannot support it).
"""

from __future__ import annotations

from typing import Dict

from ..config import SystemConfig
from ..links import Link
from ..messages import Message
from ..ndp.unit import NDPUnit
from ..sim import Simulator, StatsRegistry
from .host_path import HostForwardingFabric

#: Cycles for one RowClone bank-to-bank row copy (~100 ns at 400 MHz).
ROW_COPY_LATENCY = 40


class RowCloneFabric(HostForwardingFabric):
    """Design R: RowClone inside each chip, host forwarding across chips."""

    has_direct_path = True

    def __init__(self, sim: Simulator, config: SystemConfig,
                 stats: StatsRegistry, system: "object"):
        super().__init__(sim, config, stats, system)
        topo = config.topology
        self.chip_buses: Dict[tuple, Link] = {}
        for rank in range(topo.ranks):
            for chip in range(topo.chips_per_rank):
                self.chip_buses[(rank, chip)] = Link(
                    sim, stats, f"rowclone.r{rank}.c{chip}",
                    bytes_per_cycle=64.0,
                    fixed_latency=ROW_COPY_LATENCY,
                )
        self._stat_rowclone = stats.counter("rowclone", "intra_chip_copies")

    def try_direct(self, unit: NDPUnit, msg: Message) -> bool:
        """Same-chip messages ride the chip-internal bus directly."""
        dst = msg.dst_unit
        if dst is None:
            return False
        if not self.system.addr_map.same_chip(unit.unit_id, dst):
            return False
        coord = self.system.addr_map.coord_of_unit(unit.unit_id)
        rank = self.system.addr_map.rank_of_unit(unit.unit_id)
        bus = self.chip_buses[(rank, coord.chip)]
        # The copy occupies both banks (read out, write in) and the bus.
        read_done = unit.bank.access(
            max(self.sim.now, bus.busy_until), 0, msg.size,
            is_write=False, bytes_per_cycle=bus.bytes_per_cycle,
            from_bridge=True,
        )
        dst_unit = self.system.units[dst]
        finish = dst_unit.bank.access(
            read_done, 0, msg.size,
            is_write=True, bytes_per_cycle=bus.bytes_per_cycle,
            from_bridge=True,
        ) + ROW_COPY_LATENCY
        bus.occupy_until(finish, msg.size)
        self._stat_rowclone.add()
        self.sim.schedule_at(
            finish, lambda u=dst_unit, m=msg: self._deliver(u, [m])
        )
        return True
