"""Host-CPU message forwarding (design C, Table II).

The baseline execution model of commercial DRAM-bank NDP products: any
cross-unit message travels unit -> host CPU -> unit over the ordinary DDR
channels.  The host polls the units' in-DRAM mailbox regions periodically,
routes every message in software (a per-message overhead on one host
thread), and writes messages into the destination banks.

All of this traffic crosses the bandwidth-limited channels twice, which is
precisely the inefficiency Fig. 2 quantifies.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from ..config import SystemConfig
from ..links import Link
from ..messages import DataMessage, Message, TaskMessage, unknown_message
from ..ndp.unit import NDPUnit
from ..sim import Simulator, StatsRegistry

#: In-bank offsets of the mailbox / task-queue regions (top of the bank).
MAILBOX_REGION_OFFSET = 62 * 1024 * 1024
SCATTER_REGION_OFFSET = 63 * 1024 * 1024

#: Host accesses to per-bank data pay a transposition/packing penalty: the
#: data of one bank interleaves across the chip's burst format, so useful
#: bytes move at a fraction of link peak (UPMEM's host<->DPU transfers
#: reach well under a quarter of channel bandwidth in the PrIM study the
#: paper builds on).  Bridges avoid this entirely -- they consume the
#: per-chip slices natively.
HOST_ACCESS_INEFFICIENCY = 4.0


class HostForwardingFabric:
    """Design C: the host CPU is the only cross-unit message path."""

    #: No message skips the host (see BridgeFabric.has_direct_path).
    has_direct_path = False

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatsRegistry,
        system: "object",
    ):
        self.sim = sim
        self.config = config
        self.system = system
        topo = config.topology
        self.channel_links: List[Link] = [
            Link(sim, stats, f"host.ch{c}", config.channel_bytes_per_cycle)
            for c in range(topo.channels)
        ]
        # One DQ-slice link per (rank, chip): host reads stripe through
        # the same per-chip pins the bridge design uses.
        self.chip_links: Dict[int, List[Link]] = {}
        for rank in range(topo.ranks):
            self.chip_links[rank] = [
                Link(
                    sim, stats, f"host.r{rank}.chip{c}",
                    config.chip_link_bytes_per_cycle,
                )
                for c in range(topo.chips_per_rank)
            ]
        # Forwarding is parallelized across a few host threads (the rest
        # of the cores run the application/runtime side).
        n_threads = max(1, config.host.cores // 4)
        self._thread_busy = [0] * n_threads
        self._stat_polls = stats.counter("host", "polls")
        self._stat_forwarded = stats.counter("host", "messages_forwarded")

    # -- fabric interface ----------------------------------------------------
    def start(self) -> None:
        self.sim.schedule(
            self.config.comm.host_poll_interval_cycles, self._poll
        )

    def notify_enqueue(self, unit: NDPUnit) -> None:
        """The host polls blindly; no reaction to mailbox activity."""

    def try_direct(self, unit: NDPUnit, msg: Message) -> bool:
        return False

    # -- polling loop ----------------------------------------------------
    def _poll(self) -> None:
        if self.system.tracker.finished:
            return
        self.system.check_stalled()
        self._stat_polls.add()
        topo = self.config.topology
        t0 = self.sim.now
        for unit in self.system.units:
            if not unit.mailbox.used_bytes:
                continue
            coord = self.system.addr_map.coord_of_unit(unit.unit_id)
            rank = self.system.addr_map.rank_of_unit(unit.unit_id)
            chip_link = self.chip_links[rank][coord.chip]
            channel_link = self.channel_links[coord.channel]
            msgs = unit.mailbox.drain_all()
            nbytes = sum(m.size for m in msgs)
            wire_bytes = int(nbytes * HOST_ACCESS_INEFFICIENCY)
            start = max(t0, chip_link.busy_until)
            finish = unit.bank.access(
                start, MAILBOX_REGION_OFFSET, wire_bytes,
                is_write=False,
                bytes_per_cycle=chip_link.bytes_per_cycle,
                from_bridge=True,
            )
            chip_link.occupy_until(finish, wire_bytes)
            chan_finish = channel_link.transfer(finish, wire_bytes)
            overhead = (
                self.config.comm.host_per_message_overhead_cycles * len(msgs)
            )
            # One unit's batch is handled by the least-loaded thread.
            tid = min(range(len(self._thread_busy)),
                      key=lambda i: self._thread_busy[i])
            proc_start = max(chan_finish, self._thread_busy[tid])
            proc_finish = proc_start + overhead
            self._thread_busy[tid] = proc_finish
            self._stat_forwarded.add(len(msgs))
            self.sim.schedule_at(
                finish, lambda u=unit: u.on_mailbox_drained()
            )
            self.sim.schedule_at(
                proc_finish, lambda m=msgs: self._scatter(m)
            )
        self.sim.schedule(
            self.config.comm.host_poll_interval_cycles, self._poll
        )

    def _scatter(self, msgs: Sequence[Message]) -> None:
        """Write forwarded messages into their destination banks."""
        by_dst: Dict[int, List[Message]] = defaultdict(list)
        for msg in msgs:
            dst = msg.dst_unit
            if dst is None:
                dst = self.system.addr_map.unit_of_addr(
                    msg.task.data_addr if isinstance(msg, TaskMessage)
                    else msg.block_id * self.config.comm.g_xfer_bytes
                )
            by_dst[dst].append(msg)
        t0 = self.sim.now
        for dst, group in by_dst.items():
            unit = self.system.units[dst]
            coord = self.system.addr_map.coord_of_unit(dst)
            rank = self.system.addr_map.rank_of_unit(dst)
            chip_link = self.chip_links[rank][coord.chip]
            channel_link = self.channel_links[coord.channel]
            nbytes = sum(m.size for m in group)
            wire_bytes = int(nbytes * HOST_ACCESS_INEFFICIENCY)
            chan_finish = channel_link.transfer(t0, wire_bytes)
            start = max(chan_finish, chip_link.busy_until)
            finish = unit.bank.access(
                start, SCATTER_REGION_OFFSET, wire_bytes,
                is_write=True,
                bytes_per_cycle=chip_link.bytes_per_cycle,
                from_bridge=True,
            )
            chip_link.occupy_until(finish, wire_bytes)
            self.sim.schedule_at(
                finish, lambda u=unit, g=group: self._deliver(u, g)
            )

    @staticmethod
    def _deliver(unit: NDPUnit, msgs: Sequence[Message]) -> None:
        for msg in msgs:
            if type(msg) is TaskMessage:
                unit.deliver_task_message(msg)
            elif type(msg) is DataMessage:
                unit.deliver_data_message(msg)
            else:
                raise unknown_message(msg, "host")
