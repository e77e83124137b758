"""Level-2 bridge: cross-rank coordination (Section V-A).

Following the paper's evaluated configuration, the level-2 bridge is a
host-side software runtime: it gathers cross-rank messages from the level-1
bridges' mailbox regions over the ordinary DDR channels, routes them, and
scatters them to the destination rank.  Unlike the design-C baseline it
only handles *cross-rank* traffic -- everything intra-rank stays below the
level-1 bridges -- and it also keeps the rank-level ``dataBorrowed``
metadata and drives cross-rank load balancing when an entire rank idles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from ..balance.metadata import DataBorrowedTable
from ..config import SystemConfig
from ..links import Link
from ..messages import (
    MESSAGE_BYTES,
    DataMessage,
    Message,
    MessageBuffer,
    TaskMessage,
    unknown_message,
)
from ..sim import Simulator, StatsRegistry
from .level1 import Level1Bridge


@dataclass
class _RankAssignment:
    receiver_rank: int
    remaining: int
    issued_at: int


class Level2Bridge:
    """Host-side bridge connecting the level-1 (rank) bridges."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatsRegistry,
        system: "object",
        rank_bridges: List[Level1Bridge],
    ):
        self.sim = sim
        self.config = config
        self.system = system
        self.addr_map = system.addr_map
        self.rank_bridges = rank_bridges
        topo = config.topology
        scope = "bridge_l2"
        self.channel_links: List[Link] = [
            Link(sim, stats, f"{scope}.ch{c}", config.channel_bytes_per_cycle)
            for c in range(topo.channels)
        ]
        # Optional DIMM-Link-style peer-to-peer ports: one per rank,
        # bypassing the shared channels and the host's software routing.
        self.p2p_ports: Optional[List[Link]] = None
        if config.comm.inter_rank_links:
            bpc = (
                config.comm.inter_rank_link_gb_s * config.cycle_ns
            )
            self.p2p_ports = [
                Link(sim, stats, f"{scope}.p2p{r}", bpc)
                for r in range(len(rank_bridges))
            ]
        self.down_buffers: List[MessageBuffer] = [
            MessageBuffer(f"{scope}.down{r}", config.bridge.mailbox_bytes)
            for r in range(len(rank_bridges))
        ]
        self.borrowed = DataBorrowedTable(
            config.bridge.databorrowed_bytes,
            config.bridge.databorrowed_ways,
            config.balance.metadata_scale,
        )
        self.pending_assign: Dict[int, Deque[_RankAssignment]] = {}
        self.inflight_to: Dict[int, int] = {}
        # Per-round transfer budget toward one rank: the rank-level analog
        # of G_xfer scaled by the chips feeding the channel, with the same
        # multi-chunk allowance as the level-1 rounds.
        self.round_budget = (
            config.comm.g_xfer_bytes * topo.chips_per_rank
            * max(1, config.comm.max_chunks_per_round // 2)
        )
        self.i_min = self._analytic_i_min()
        self.last_round_end = 0
        self._round_active = False
        self._recheck_scheduled = False
        self.host_busy_until = 0

        self._stat_rounds = stats.counter(scope, "message_rounds")
        self._stat_state_rounds = stats.counter(scope, "state_rounds")
        self._stat_schedules = stats.counter(scope, "schedule_commands")
        self._stat_routed = stats.counter(scope, "messages_routed")
        self._stat_cross_channel = stats.counter(scope, "cross_channel_messages")

    # ------------------------------------------------------------------
    def _analytic_i_min(self) -> int:
        ranks_per_channel = self.config.topology.ranks_per_channel
        per_rank = math.ceil(
            self.round_budget / self.config.channel_bytes_per_cycle
        )
        return 2 * ranks_per_channel * per_rank

    def _finished(self) -> bool:
        return self.system.tracker.finished

    def _uplink(self, rank: int) -> Link:
        """The link carrying this rank's cross-rank traffic: its DIMM-Link
        p2p port when present, otherwise the shared memory channel."""
        if self.p2p_ports is not None:
            return self.p2p_ports[rank]
        return self.channel_links[self.addr_map.channel_of_rank(rank)]

    def start(self) -> None:
        self.sim.schedule(self.config.comm.i_state_cycles, self._state_round)

    # ------------------------------------------------------------------
    # state + cross-rank load balancing
    # ------------------------------------------------------------------
    def _state_round(self) -> None:
        if self._finished():
            return
        # One state message per rank crosses each channel.
        for link in self.channel_links:
            nbytes = MESSAGE_BYTES * self.config.topology.ranks_per_channel
            link.occupy_until(
                max(self.sim.now, link.busy_until)
                + link.transfer_cycles(nbytes),
                nbytes,
            )
        self._stat_state_rounds.add()
        self._expire_assignments()
        if self.config.balance.enabled:
            self._run_load_balancing()
        self._maybe_start_round()
        self.sim.schedule(self.config.comm.i_state_cycles, self._state_round)

    def to_arrive(self, rank: int) -> int:
        pending = sum(
            a.remaining
            for q in self.pending_assign.values()
            for a in q
            if a.receiver_rank == rank
        )
        return pending + self.inflight_to.get(rank, 0)

    def _run_load_balancing(self) -> None:
        """Step 1 at rank granularity: only fully idle ranks receive."""
        idle_ranks = [
            r for r, b in enumerate(self.rank_bridges)
            if b.all_idle and self.to_arrive(r) == 0
        ]
        if not idle_ranks:
            return
        loads = [
            (b.aggregate_load(), r)
            for r, b in enumerate(self.rank_bridges)
            if not b.all_idle
        ]
        if not loads:
            return
        for receiver_rank in idle_ranks:
            giver_load, giver_rank = max(loads)
            if giver_load <= 0:
                break
            receiver_bridge = self.rank_bridges[receiver_rank]
            if self.config.balance.fine_grained:
                per_unit = (
                    receiver_bridge.receiver_target()
                    if receiver_bridge.policy else 64
                )
                budget = per_unit * len(receiver_bridge.units)
            else:
                budget = max(1, int(
                    self.config.balance.steal_fraction * giver_load
                ))
            budget = min(budget, giver_load)
            if budget <= 0:
                continue
            queue = self.pending_assign.setdefault(giver_rank, deque())
            queue.append(_RankAssignment(receiver_rank, budget, self.sim.now))
            self._stat_schedules.add()
            self.rank_bridges[giver_rank].handle_schedule_from_l2(budget)
            loads[loads.index((giver_load, giver_rank))] = (
                max(0, giver_load - budget), giver_rank
            )

    def _expire_assignments(self) -> None:
        horizon = self.sim.now - 4 * self.config.comm.i_state_cycles
        for queue in self.pending_assign.values():
            while queue and queue[0].issued_at < horizon:
                queue.popleft()

    # ------------------------------------------------------------------
    # message rounds over the channels
    # ------------------------------------------------------------------
    def maybe_start_round(self) -> None:
        """The nudge a level-1 bridge gives on each upward message."""
        if self._round_active or self.system.tracker.finished:
            return
        self._maybe_start_round()

    def _maybe_start_round(self) -> None:
        if self._round_active:
            return
        # A round starts at once for anything to scatter down or a full
        # round's worth in some rank's up mailbox; any other upward
        # traffic waits for I_min.  One pass over each side.
        for buf in self.down_buffers:
            if buf.used_bytes:
                self._start_round()
                return
        budget = self.round_budget
        waiting = False
        for bridge in self.rank_bridges:
            used = bridge.up_mailbox.used_bytes
            if used >= budget:
                self._start_round()
                return
            if used:
                waiting = True
        if not waiting:
            return
        if self.sim.now - self.last_round_end >= self.i_min:
            self._start_round()
            return
        # Traffic is waiting but I_min has not elapsed: wake up then.
        if not self._recheck_scheduled:
            self._recheck_scheduled = True
            delay = max(1, self.last_round_end + self.i_min - self.sim.now)

            def recheck() -> None:
                self._recheck_scheduled = False
                self._maybe_start_round()

            self.sim.schedule(delay, recheck)

    def _start_round(self) -> None:
        self._round_active = True
        self._stat_rounds.add()
        t0 = self.sim.now
        max_finish = t0
        overhead = self.config.comm.l2_per_message_overhead_cycles
        budget = self.round_budget
        schedule_at = self.sim.schedule_at

        # -- gather from each rank's up mailbox ---------------------------
        for rank, bridge in enumerate(self.rank_bridges):
            mailbox = bridge.up_mailbox
            if not mailbox.used_bytes:
                continue
            link = self._uplink(rank)
            msgs, nbytes = mailbox.pop_up_to(budget)
            finish = link.transfer(t0, nbytes)
            if self.p2p_ports is None:
                # Host software routes each message (the paper's level-2
                # is a host runtime); serialize on the host core.
                proc_start = self.host_busy_until
                if finish > proc_start:
                    proc_start = finish
                proc_finish = proc_start + overhead * len(msgs)
                self.host_busy_until = proc_finish
            else:
                # Hardware p2p routing: a couple of cycles of port logic.
                proc_finish = finish + 2
            schedule_at(
                proc_finish, lambda m=msgs: self._route_messages(m)
            )
            if proc_finish > max_finish:
                max_finish = proc_finish

        # -- scatter toward each rank --------------------------------------
        for rank, bridge in enumerate(self.rank_bridges):
            buf = self.down_buffers[rank]
            if not buf.used_bytes:
                continue
            link = self._uplink(rank)
            msgs, nbytes = buf.pop_up_to(budget)
            finish = link.transfer(t0, nbytes)
            schedule_at(
                finish, lambda b=bridge, m=msgs, r=rank: self._deliver(b, r, m)
            )
            if finish > max_finish:
                max_finish = finish

        self.sim.schedule_at(max(max_finish, t0 + 1), self._round_done)

    def _round_done(self) -> None:
        # The re-check for every route and delivery of the round: each
        # one runs no later than, and before, this event, so while they
        # run ``_round_active`` is set and they need not check.
        self._round_active = False
        self.last_round_end = self.sim.now
        self._maybe_start_round()

    def _deliver(
        self, bridge: Level1Bridge, rank: int, msgs: Sequence[Message]
    ) -> None:
        for msg in msgs:
            if type(msg) is DataMessage and not msg.returning:
                self.inflight_to[rank] = max(
                    0, self.inflight_to.get(rank, 0) - msg.bundle_workload
                )
            bridge.receive_from_l2(msg)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route_messages(self, msgs: Sequence[Message]) -> None:
        for msg in msgs:
            self._route_one(msg)

    def _route_one(self, msg: Message) -> None:
        self._stat_routed.add()
        if type(msg) is TaskMessage:
            block = msg.task.data_addr // self.config.comm.g_xfer_bytes
            entry = self.borrowed.lookup(block)
            if entry is not None:
                self._push_down(msg, entry.value)
            else:
                self._push_down(msg, self.addr_map.rank_of_block(block))
        elif type(msg) is DataMessage:
            if msg.returning:
                self.borrowed.remove(msg.block_id)
                self._push_down(
                    msg, self.addr_map.rank_of_unit(msg.dst_unit)
                )
            elif msg.lb_pending:
                self._push_down(msg, self._assign_rank(msg))
            else:
                self._push_down(
                    msg, self.addr_map.rank_of_unit(msg.dst_unit)
                )
        else:
            raise unknown_message(msg, "level2")

    def _assign_rank(self, msg: DataMessage) -> int:
        giver_rank = self.addr_map.rank_of_unit(msg.src_unit)
        queue = self.pending_assign.get(giver_rank)
        if queue:
            assignment = queue[0]
            assignment.remaining -= max(1, msg.bundle_workload)
            if assignment.remaining <= 0:
                queue.popleft()
            rank = assignment.receiver_rank
        else:
            # Assignment expired: pick the least-loaded other rank.
            loads = [
                (b.aggregate_load() + self.to_arrive(r), r)
                for r, b in enumerate(self.rank_bridges)
                if r != giver_rank
            ]
            rank = min(loads)[1] if loads else giver_rank
        victim = self.borrowed.insert(
            msg.block_id, rank, msg.home_unit
        )
        if victim is not None:
            self._recall_from_rank(victim.value, victim.block_id)
        self.inflight_to[rank] = (
            self.inflight_to.get(rank, 0) + msg.bundle_workload
        )
        channel_of_rank = self.addr_map.channel_of_rank
        if channel_of_rank(rank) != channel_of_rank(giver_rank):
            self._stat_cross_channel.add()
        return rank

    def _recall_from_rank(self, rank: int, block_id: int) -> None:
        bridge = self.rank_bridges[rank]
        entry = bridge.borrowed.lookup(block_id)
        if entry is not None:
            self.system.units[entry.value].recall_block(block_id)
        else:
            # The lend has not reached the rank bridge yet; it will
            # forward the recall once it assigns the bundle.
            bridge.pending_recall_blocks.add(block_id)

    def _push_down(self, msg: Message, rank: int) -> None:
        buf = self.down_buffers[rank]
        if not buf.push(msg):
            # Soft overflow, mirroring the level-1 backup behaviour.
            buf.force_push(msg)
