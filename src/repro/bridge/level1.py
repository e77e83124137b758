"""Level-1 (rank) bridge (Section V, Fig. 4(a)).

One bridge lives in each rank's DIMM buffer chip.  It owns, per child bank,
a 1 kB scatter buffer; a shared backup buffer; a mailbox region for
messages headed to the level-2 bridge; the message router; the command
generator (STATE-GATHER / GATHER / SCATTER / SCHEDULE encoded as reserved-
address DDR commands); and the rank-level ``dataBorrowed`` table for load
balancing.

Timing model: all chips of the rank share the C/A bus, so one command
reaches the same bank index of every chip simultaneously, each chip
answering over its own DQ slice (the memory-level-parallelism optimization
of Section V-B).  A round therefore walks bank indices; per chip, the DQ
link serializes that chip's transfers, and each transfer also reserves the
target bank through its access arbiter.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from ..balance.metadata import DataBorrowedTable
from ..balance.policy import ChildLoad, SchedulePlan, SchedulingPolicy
from ..config import GATHER_HEADROOM_BLOCKS, SystemConfig
from ..dram.commands import BridgeOp, CommandCodec
from ..links import Link
from ..messages import (
    MESSAGE_BYTES,
    DataMessage,
    Message,
    MessageBuffer,
    TaskMessage,
    unknown_message,
)
from ..ndp.unit import NDPUnit, UnitState
from ..sim import DeterministicRNG, Simulator, StatsRegistry

#: Sentinel receiver: the bundle leaves the rank via the level-2 bridge.
UP = -1

#: C/A command issue latency (cycles) for SCHEDULE and friends.
COMMAND_LATENCY = 4

#: In-bank offsets of the controller-managed regions (top of the bank).
MAILBOX_REGION_OFFSET = 62 * 1024 * 1024
SCATTER_REGION_OFFSET = 63 * 1024 * 1024


@dataclass
class _Assignment:
    """Planned receiver for a giver's upcoming bundles."""

    receiver: int           # unit id, or UP for cross-rank
    remaining: int
    issued_at: int


class Level1Bridge:
    """Rank-level bridge coordinating the 64 banks beneath it."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatsRegistry,
        system: "object",
        global_rank: int,
        rng: DeterministicRNG,
    ):
        self.sim = sim
        self.config = config
        self.system = system
        self.global_rank = global_rank
        topo = config.topology

        unit_ids = list(system.addr_map.units_in_rank(global_rank))
        self.units: List[NDPUnit] = [system.units[i] for i in unit_ids]
        self._unit_ids = set(unit_ids)
        # First unit id of this rank: chip links are indexed from it.
        self._unit_base = unit_ids[0] if unit_ids else 0
        scope = f"bridge{global_rank}"
        self.chip_links: List[Link] = [
            Link(
                sim, stats, f"{scope}.chip{c}",
                config.chip_link_bytes_per_cycle,
            )
            for c in range(topo.chips_per_rank)
        ]
        #: Unit id -> the DQ-slice link of the chip holding its bank.
        self._link_of_unit: Dict[int, Link] = {
            uid: self.chip_links[
                (uid - self._unit_base) // topo.banks_per_chip
            ]
            for uid in unit_ids
        }
        self.scatter_buffers: Dict[int, MessageBuffer] = {
            uid: MessageBuffer(
                f"{scope}.scatter{uid}",
                config.bridge.scatter_buffer_bytes_per_bank,
            )
            for uid in unit_ids
        }
        # Backup buffer (shared SRAM absorbing scatter-buffer overflow).
        # Organized per destination: only per-destination FIFO order is
        # architecturally meaningful (data block before its tasks), and it
        # makes draining O(moved) instead of O(buffered).
        self._backup: Dict[int, Deque[Message]] = {}
        self._backup_bytes = 0
        self.backup_capacity = config.bridge.backup_buffer_bytes
        self._g_xfer = config.comm.g_xfer_bytes
        self.up_mailbox = MessageBuffer(
            f"{scope}.mailbox", config.bridge.mailbox_bytes
        )
        self.borrowed = DataBorrowedTable(
            config.bridge.databorrowed_bytes,
            config.bridge.databorrowed_ways,
            config.balance.metadata_scale,
        )
        # ``rng`` is the system's root stream: the policy stream is
        # derived from it by name, and only when balancing is on.
        self.policy: Optional[SchedulingPolicy] = None
        if config.balance.enabled:
            self.policy = SchedulingPolicy(
                config.balance,
                rng.substream(f"fabric/bridge{global_rank}/policy"),
            )
        from .triggering import CommTrigger

        self.trigger = CommTrigger(config.comm)
        self.codec = CommandCodec()

        self.pending_assign: Dict[int, Deque[_Assignment]] = {}
        #: Blocks the level-2 bridge recalled before we saw their lend.
        self.pending_recall_blocks: set = set()
        #: Units with (possibly) non-empty mailboxes / scatter buffers, so
        #: rounds and trigger checks touch only active children.
        self._mail_pending: set = set()
        self._scatter_pending: set = set()
        self.inflight_to: Dict[int, int] = {uid: 0 for uid in unit_ids}
        self.up_blocks: set = set()
        self.last_snapshot: Dict[int, UnitState] = {}
        #: Set by the fabric to nudge the level-2 bridge on upward traffic.
        self.on_up_push = None
        self.last_round_end = 0
        self._round_active = False
        self._recheck_scheduled = False
        #: Facts of ``last_snapshot``, set with it once per state round:
        #: every child idle, and some child with an empty queue (or no
        #: snapshot yet), which the round trigger reads.
        self.all_idle = False
        self._any_idle = True
        self.i_min = self._analytic_i_min()

        self._stat_rounds = stats.counter(scope, "message_rounds")
        self._stat_state_rounds = stats.counter(scope, "state_rounds")
        self._stat_wasted_gathers = stats.counter(scope, "wasted_gathers")
        self._stat_schedules = stats.counter(scope, "schedule_commands")
        self._stat_routed_up = stats.counter(scope, "messages_routed_up")
        self._stat_routed_local = stats.counter(scope, "messages_routed_local")
        self._stat_backup_overflow = stats.counter(scope, "backup_overflows")
        self._stat_sram = stats.counter(scope, "sram_accesses")

    # ------------------------------------------------------------------
    # derived timing
    # ------------------------------------------------------------------
    def _analytic_i_min(self) -> int:
        """Time for one full gather+scatter round across all children."""
        cfg = self.config
        per_xfer = (
            cfg.t_rcd_cycles + cfg.t_cas_cycles
            + math.ceil(cfg.comm.g_xfer_bytes / cfg.chip_link_bytes_per_cycle)
        )
        return 2 * cfg.topology.banks_per_chip * per_xfer

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.schedule(self.config.comm.i_state_cycles, self._state_round)

    def _finished(self) -> bool:
        return self.system.tracker.finished

    # ------------------------------------------------------------------
    # state gathering (STATE-GATHER every I_state cycles)
    # ------------------------------------------------------------------
    def _state_round(self) -> None:
        if self._finished():
            return
        self.system.check_stalled()
        cfg = self.config
        per_msg = math.ceil(MESSAGE_BYTES / cfg.chip_link_bytes_per_cycle)
        duration = cfg.topology.banks_per_chip * per_msg
        for link in self.chip_links:
            link.occupy_until(
                max(self.sim.now, link.busy_until) + duration,
                cfg.topology.banks_per_chip * MESSAGE_BYTES,
            )
        self._stat_state_rounds.add()
        self.sim.schedule(duration, self._state_round_done)
        self.sim.schedule(cfg.comm.i_state_cycles, self._state_round)

    def _state_round_done(self) -> None:
        if self._finished():
            return
        units = self.units
        for u in units:
            if u.parked:
                u.retry_parked()
        snapshot: Dict[int, UnitState] = {}
        all_idle = True
        any_idle = not units
        for u in units:
            state = u.collect_state()
            snapshot[u.unit_id] = state
            if not state.idle:
                all_idle = False
            if state.queue_workload == 0:
                any_idle = True
        self.last_snapshot = snapshot
        self.all_idle = all_idle
        self._any_idle = any_idle
        self._expire_assignments()
        if self.policy is not None:
            self._run_load_balancing()
        self._maybe_start_round()

    # ------------------------------------------------------------------
    # load balancing (Section VI-A workflow, steps 1-5)
    # ------------------------------------------------------------------
    def _speeds(self) -> tuple:
        """(S_exe, S_xfer) estimates from gathered state (Section VI-C).

        ``S_exe`` is the workload retired per *busy* cycle: the speed at
        which a unit chews through queued work while it has any.  Using
        wall-clock-amortized speed instead would shrink W_th on idle
        systems and starve receivers.
        """
        total_finished = total_busy = 0
        for s in self.last_snapshot.values():
            total_finished += s.finished_workload
            total_busy += s.busy_cycles
        if total_busy > 0:
            s_exe = max(1e-6, total_finished / total_busy)
        else:
            s_exe = 0.5
        s_xfer = self.config.chip_link_bytes_per_cycle
        return s_exe, s_xfer

    def _to_arrive(self) -> Dict[int, int]:
        """Each child's toArrive: workload assigned to it but not yet
        landed (pending SCHEDULE budgets plus in-flight bundles), from one
        pass over the assignment queues."""
        pending: Dict[int, int] = {}
        for queue in self.pending_assign.values():
            for a in queue:
                pending[a.receiver] = pending.get(a.receiver, 0) + a.remaining
        # ``inflight_to`` has an entry for every child from the start.
        inflight = self.inflight_to
        return {
            uid: pending.get(uid, 0) + inflight[uid]
            for uid in self.last_snapshot
        }

    def _receiver_target(self, s_exe: float, w_th: int) -> int:
        k = self.config.balance.budget_w_th_multiple
        return max(
            int(k * w_th),
            int(self.config.comm.i_state_cycles * s_exe),
        )

    def receiver_target(self) -> int:
        """Workload to top a receiver up to: a multiple of W_th, but at
        least enough to keep it busy until the next scheduling round."""
        s_exe, s_xfer = self._speeds()
        w_th = self.policy.w_th(self._g_xfer, s_exe, s_xfer)
        return self._receiver_target(s_exe, w_th)

    def _run_load_balancing(self) -> None:
        snapshot = self.last_snapshot
        to_arrive = self._to_arrive()
        s_exe, s_xfer = self._speeds()
        w_th = self.policy.w_th(self._g_xfer, s_exe, s_xfer)
        if self.config.balance.fine_grained:
            # Endgame guard (data-transfer awareness, Section VI-C): when
            # the whole rank's remaining work is within a transfer-time of
            # draining anyway, migrating it can only add traffic -- "it
            # may be better to not schedule out tasks".
            total = 0
            for uid, s in snapshot.items():
                total += s.queue_workload + to_arrive[uid]
            if total < w_th * max(1, len(snapshot)):
                return
        # Built only past the guard, which skips most rounds.
        loads = [
            ChildLoad(uid, s.queue_workload, to_arrive[uid])
            for uid, s in snapshot.items()
        ]
        plans = self.policy.plan(
            loads, w_th, self._receiver_target(s_exe, w_th)
        )
        for plan in plans:
            self._issue_schedule(plan)

    def _issue_schedule(
        self, plan: SchedulePlan, receiver_override: Optional[int] = None
    ) -> None:
        """Step 1: SCHEDULE command carrying the budget to the giver."""
        giver = self.system.units[plan.giver]
        queue = self.pending_assign.setdefault(plan.giver, deque())
        for receiver, amount in plan.receivers:
            target = receiver_override if receiver_override is not None else receiver
            queue.append(_Assignment(target, amount, self.sim.now))
        # Encode/decode round trip models the reserved-row command path.
        encoded = self.codec.encode(BridgeOp.SCHEDULE, budget=plan.budget)
        decoded = self.codec.decode(encoded)
        self._stat_schedules.add()
        self.sim.schedule(
            COMMAND_LATENCY,
            lambda: giver.handle_schedule(decoded.budget),
        )

    def handle_schedule_from_l2(self, budget: int) -> None:
        """Level-2 asked this rank to give ``budget`` of work away."""
        if self.policy is None or budget <= 0:
            return
        loads = sorted(
            self.last_snapshot.items(),
            key=lambda item: -item[1].queue_workload,
        )
        remaining = budget
        for uid, s in loads:
            if remaining <= 0 or s.queue_workload <= 0:
                break
            amount = min(remaining, s.queue_workload)
            plan = SchedulePlan(
                giver=uid, budget=amount,
                receivers=[(UP, amount)],
            )
            self._issue_schedule(plan)
            remaining -= amount

    def assign_incoming_bundle(self, msg: DataMessage) -> int:
        """Level-2 handed us a cross-rank bundle: pick the receiver unit."""
        to_arrive = self._to_arrive()
        candidates = [
            (s.queue_workload + to_arrive[uid], uid)
            for uid, s in self.last_snapshot.items()
        ]
        if not candidates:
            receiver = self.units[0].unit_id
        else:
            receiver = min(candidates)[1]
        self._record_assignment(msg, receiver)
        return receiver

    def _record_assignment(self, msg: DataMessage, receiver: int) -> None:
        if receiver == msg.home_unit:
            # A lend back to its own home is a routing contradiction
            # (isLent says "gone", the entry says "here"); redirect.
            receiver = self._fallback_receiver(msg.home_unit)
        msg.dst_unit = receiver
        msg.lb_pending = False
        self._stat_sram.add()
        # Commit the home unit's isLent bit together with our entry so the
        # metadata transition is atomic for routing purposes.
        self.system.units[msg.home_unit].commit_lend(msg.block_id)
        victim = self.borrowed.insert(msg.block_id, receiver, msg.home_unit)
        if victim is not None:
            # The table lost track of a borrowed block; recall it home so
            # routing stays sound (inclusive two-level tables, Sec. VI-B).
            holder = self.system.units[victim.value]
            holder.recall_block(victim.block_id)
        self.inflight_to[receiver] = (
            self.inflight_to.get(receiver, 0) + msg.bundle_workload
        )
        if msg.block_id in self.pending_recall_blocks:
            # An upper-level recall raced past this lend; forward the
            # recall to the receiver, which will return the block on
            # delivery.
            self.pending_recall_blocks.discard(msg.block_id)
            self.system.units[receiver].recall_block(msg.block_id)
        # Tasks that bounced off the home unit during the metadata-update
        # window are parked there; now that the borrow entry exists they
        # can be re-routed to the receiver.
        home = self.system.units[msg.home_unit]
        if home.parked:
            home.retry_parked()

    def _expire_assignments(self) -> None:
        horizon = self.sim.now - 2 * self.config.comm.i_state_cycles
        for queue in self.pending_assign.values():
            while queue and queue[0].issued_at < horizon:
                queue.popleft()

    # ------------------------------------------------------------------
    # message rounds (GATHER + SCATTER)
    # ------------------------------------------------------------------
    def notify_enqueue(self, unit: NDPUnit) -> None:
        self._mail_pending.add(unit.unit_id)
        if unit.mailbox.used_bytes >= self._g_xfer:
            self._maybe_start_round()

    def _gather_paused(self) -> bool:
        """Gathering pauses while the backup buffer is nearly full
        (Section V-A backpressure)."""
        return (
            self.backup_capacity - self._backup_bytes
            < GATHER_HEADROOM_BLOCKS * self._g_xfer
        )

    def _maybe_start_round(self) -> None:
        if self._round_active or self.system.tracker.finished:
            return
        if self._gather_paused():
            # Mailbox pressure cannot be served; only internal draining
            # can make progress.
            lens = []
        else:
            units = self.system.units
            lens = [
                units[uid].mailbox.used_bytes
                for uid in sorted(self._mail_pending)
            ]
        internal = self._backup_bytes > 0 or bool(self._scatter_pending)
        trigger = self.trigger
        if trigger.should_start_round(
            self.sim.now, self.last_round_end, self.i_min,
            lens, self._any_idle, internal,
        ):
            self._start_round()
            return
        if trigger.gathers_empty_children():
            # Fixed modes re-arm themselves for the next interval.
            interval = self.i_min * (
                2 if trigger.config.trigger_mode.value == "fixed_2x" else 1
            )
            self._schedule_recheck(self.last_round_end + interval)
        elif internal or any(lens):
            # Dynamic mode with traffic waiting but I_min not yet elapsed:
            # wake up once the interval passes instead of waiting for the
            # next state round.
            self._schedule_recheck(self.last_round_end + self.i_min)

    def _schedule_recheck(self, target: int) -> None:
        if self._recheck_scheduled:
            return
        self._recheck_scheduled = True
        delay = max(1, target - self.sim.now)

        def recheck() -> None:
            self._recheck_scheduled = False
            self._maybe_start_round()

        self.sim.schedule(delay, recheck)

    def _start_round(self) -> None:
        self._round_active = True
        self._stat_rounds.add()
        if self._backup:
            self._drain_backup()
        g_xfer = self._g_xfer
        t0 = self.sim.now
        max_finish = t0
        gather_blindly = self.trigger.gathers_empty_children()
        max_chunks = self.config.comm.max_chunks_per_round
        # Fixed for the whole round: look each up once, not per child.
        units = self.system.units
        link_of = self._link_of_unit
        mail_pending = self._mail_pending
        schedule_at = self.sim.schedule_at

        # -- gather phase ------------------------------------------------
        if not self._gather_paused():
            if gather_blindly:
                gather_ids = [u.unit_id for u in self.units]
            else:
                gather_ids = sorted(mail_pending)
            for uid in gather_ids:
                unit = units[uid]
                mailbox = unit.mailbox
                used = mailbox.used_bytes
                if used == 0 and not gather_blindly:
                    mail_pending.discard(uid)
                    continue
                # ceil(used / G_xfer) chunks, one for an empty mailbox.
                chunks = -(-used // g_xfer) or 1
                if chunks > max_chunks:
                    chunks = max_chunks
                nbytes = chunks * g_xfer
                link = link_of[uid]
                busy_until = link.busy_until
                finish = unit.bank.access(
                    busy_until if busy_until > t0 else t0,
                    MAILBOX_REGION_OFFSET, nbytes, False,
                    link.bytes_per_cycle, True,
                )
                link.occupy_until(finish, nbytes)
                if used == 0:
                    self._stat_wasted_gathers.add()
                    continue
                msgs, _ = mailbox.fetch(nbytes)
                if not mailbox.used_bytes:
                    mail_pending.discard(uid)
                schedule_at(
                    finish,
                    lambda u=unit, m=msgs: self._gathered(u, m),
                )
                if finish > max_finish:
                    max_finish = finish

        # -- scatter phase -------------------------------------------------
        scatter_pending = self._scatter_pending
        budget = max_chunks * g_xfer
        scatter_buffers = self.scatter_buffers
        for uid in sorted(scatter_pending):
            buf = scatter_buffers[uid]
            if not buf.used_bytes:
                scatter_pending.discard(uid)
                continue
            msgs, nbytes = buf.pop_up_to(budget)
            if not buf.used_bytes:
                scatter_pending.discard(uid)
            unit = units[uid]
            link = link_of[uid]
            busy_until = link.busy_until
            finish = unit.bank.access(
                busy_until if busy_until > t0 else t0,
                SCATTER_REGION_OFFSET, nbytes, True,
                link.bytes_per_cycle, True,
            )
            link.occupy_until(finish, nbytes)
            schedule_at(
                finish,
                lambda u=unit, m=msgs: self._deliver(u, m),
            )
            if finish > max_finish:
                max_finish = finish

        if max_finish == t0:
            # Nothing could move (e.g. gather paused with empty scatter
            # buffers).  Back off instead of spinning on empty rounds.
            self._round_active = False
            self.last_round_end = self.sim.now
            self._schedule_recheck(self.sim.now + self.i_min)
            return
        self.sim.schedule_at(max_finish, self._round_done)

    def _round_done(self) -> None:
        # The re-check for every gather and scatter of the round: each
        # one completes no later than, and before, this event, so while
        # they run ``_round_active`` is set and they need not check.
        self._round_active = False
        self.last_round_end = self.sim.now
        self._maybe_start_round()

    def _gathered(self, unit: NDPUnit, msgs: Sequence[Message]) -> None:
        unit.on_mailbox_drained()
        self._route_messages(msgs)

    def _deliver(self, unit: NDPUnit, msgs: Sequence[Message]) -> None:
        for msg in msgs:
            if type(msg) is TaskMessage:
                if msg.lb_assigned:
                    # Workload correction (Section VI-C): the pending
                    # budget is released as the *work* lands, not when the
                    # data block's message arrives -- otherwise the
                    # receiver looks idle again while its task train is
                    # still in flight and the policy keeps over-stealing.
                    self.inflight_to[unit.unit_id] = max(
                        0,
                        self.inflight_to.get(unit.unit_id, 0)
                        - msg.task.workload_estimate,
                    )
                unit.deliver_task_message(msg)
            elif type(msg) is DataMessage:
                unit.deliver_data_message(msg)
            else:
                raise unknown_message(msg, f"bridge{self.global_rank}")

    # ------------------------------------------------------------------
    # the message router
    # ------------------------------------------------------------------
    def _route_messages(self, msgs: Sequence[Message]) -> None:
        for msg in msgs:
            self._route_one(msg)

    def _route_one(self, msg: Message) -> None:
        if type(msg) is TaskMessage:
            block = msg.task.data_addr // self._g_xfer
            self._stat_sram.add()
            entry = self.borrowed.lookup(block)
            if entry is not None:
                self._route_to(msg, entry.value)
                return
            if msg.lb_assigned and block in self.up_blocks:
                self._route_to(msg, UP)
                return
            home = self.system.addr_map.unit_of_block(block)
            if msg.bounces > 0 and home in self._unit_ids:
                # The home unit asserted the block is elsewhere and we
                # have no entry: the block lives in (or is returning
                # from) another rank.  Send upward if an upper level
                # exists.
                if self.system.has_level2:
                    self._route_to(msg, UP)
                    return
            self._route_to(msg, home)
        elif type(msg) is DataMessage:
            self._route_data(msg)
        else:
            raise unknown_message(msg, f"bridge{self.global_rank}")

    def _route_data(self, msg: DataMessage) -> None:
        if msg.returning:
            self._stat_sram.add()
            self.borrowed.remove(msg.block_id)
            self.up_blocks.discard(msg.block_id)
            self._route_to(msg, msg.dst_unit)
            return
        if msg.lb_pending:
            assignment = self._pop_assignment(msg.src_unit, msg.bundle_workload)
            if assignment is None:
                receiver = self._fallback_receiver(msg.src_unit)
            elif assignment.receiver == UP:
                # The bundle leaves the rank; the home bitmap commits now
                # and the level-2 bridge will hold the location entry.
                self.system.units[msg.home_unit].commit_lend(msg.block_id)
                self.up_blocks.add(msg.block_id)
                self._route_to(msg, UP)
                return
            else:
                receiver = assignment.receiver
            self._record_assignment(msg, receiver)
            self._route_to(msg, receiver)
            return
        self._route_to(msg, msg.dst_unit)

    def _pop_assignment(
        self, giver: int, bundle_workload: int
    ) -> Optional[_Assignment]:
        queue = self.pending_assign.get(giver)
        if not queue:
            return None
        assignment = queue[0]
        # The bundle consumes budget from the head assignment; the slot is
        # retired once its planned amount is satisfied.
        assignment.remaining -= max(1, bundle_workload)
        if assignment.remaining <= 0:
            queue.popleft()
        return assignment

    def _fallback_receiver(self, giver: int) -> int:
        to_arrive = self._to_arrive()
        candidates = [
            (s.queue_workload + to_arrive[uid], uid)
            for uid, s in self.last_snapshot.items()
            if uid != giver
        ]
        if not candidates:
            # No snapshot yet: any unit but the giver (a self-lend would
            # make the home bounce its own tasks forever).
            for unit in self.units:
                if unit.unit_id != giver:
                    return unit.unit_id
            return giver
        return min(candidates)[1]

    def _route_to(self, msg: Message, dst: int) -> None:
        if dst != UP:
            msg.dst_unit = dst
            if dst in self._unit_ids:
                self._stat_routed_local.add()
                # FIFO per destination: once a message for ``dst`` waits in
                # the backup buffer, everything behind it must queue there
                # too -- otherwise a full scatter buffer can starve an
                # overflowed data message behind a churn of task messages
                # forever.
                if (dst in self._backup
                        or not self.scatter_buffers[dst].push(msg)):
                    self._overflow(msg, dst)
                else:
                    self._scatter_pending.add(dst)
                return
        # Up to the level-2 bridge: explicitly, or a unit of another rank.
        self._stat_routed_up.add()
        if UP in self._backup or not self.up_mailbox.push(msg):
            self._overflow(msg, UP)
        if self.on_up_push is not None:
            self.on_up_push()

    def _overflow(self, msg: Message, route_key: int) -> None:
        """Destination buffer full: fall back to the shared backup buffer."""
        size = msg.size
        if self._backup_bytes + size > self.backup_capacity:
            # Soft overflow: real hardware pauses gathering before this
            # point; we count the event and carry on to stay deadlock-free.
            self._stat_backup_overflow.add()
        self._backup.setdefault(route_key, deque()).append(msg)
        self._backup_bytes += size

    def backup_messages(self) -> tuple:
        """Snapshot of backup-buffered messages (audits and tests).

        Per-destination FIFO order, destinations in sorted route-key
        order so the snapshot is deterministic.
        """
        out: List[Message] = []
        for route_key in sorted(self._backup):
            out.extend(self._backup[route_key])
        return tuple(out)

    def _drain_backup(self) -> None:
        """Retry buffered messages whose destination has space again.

        Strict FIFO per destination: a destination whose head message does
        not fit stays blocked, so ordering (data block before its tasks)
        is preserved.  Only called while the backup buffer holds messages.
        """
        emptied: List[int] = []
        for route_key, queue in self._backup.items():
            target = (
                self.up_mailbox if route_key == UP
                else self.scatter_buffers[route_key]
            )
            moved = False
            while queue and target.push(queue[0]):
                self._backup_bytes -= queue.popleft().size
                moved = True
            if moved and route_key != UP:
                self._scatter_pending.add(route_key)
            if not queue:
                emptied.append(route_key)
        for route_key in emptied:
            del self._backup[route_key]

    # ------------------------------------------------------------------
    # level-2 interface
    # ------------------------------------------------------------------
    def aggregate_load(self) -> int:
        return sum(
            s.queue_workload for s in self.last_snapshot.values()
        ) + sum(self.inflight_to.values())

    def receive_from_l2(self, msg: Message) -> None:
        """A message scattered down by the level-2 bridge."""
        if type(msg) is TaskMessage:
            block = msg.task.data_addr // self._g_xfer
            entry = self.borrowed.lookup(block)
            if entry is not None:
                self._route_to(msg, entry.value)
            else:
                home = self.system.addr_map.unit_of_block(block)
                self._route_to(msg, home)
        elif type(msg) is DataMessage:
            if msg.returning:
                self.borrowed.remove(msg.block_id)
                self._route_to(msg, msg.dst_unit)
            elif msg.lb_pending:
                receiver = self.assign_incoming_bundle(msg)
                self._route_to(msg, receiver)
            else:
                self._route_to(msg, msg.dst_unit)
        else:
            raise unknown_message(msg, f"bridge{self.global_rank}")
