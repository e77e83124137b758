"""The NDP unit: one wimpy core + unit controller per DRAM bank.

This module models everything inside Fig. 4(b): the in-order core executing
tasks from the in-DRAM task queue, the unit controller with its mailbox
head/tail pointers, command handler and message handler, the borrowed-data
region, and the load-balancing structures (isLent bitmap, dataBorrowed
table, hot-data sketch, reserved queue).

The unit is *passive* on the communication side: the parent bridge (or the
host forwarder) pulls from its mailbox and pushes into its queues; the unit
only appends outgoing messages and stalls when the mailbox ring is full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..balance.metadata import DataBorrowedTable, IsLentBitmap
from ..balance.reserved_queue import ReservedQueue
from ..balance.sketch import HotDataSketch
from ..config import SystemConfig
from ..dram.bank import DRAMBank
from ..messages import DataMessage, Mailbox, Message, TaskMessage
from ..runtime.program import TaskContext
from ..runtime.task import Task
from ..sim import DeterministicRNG, Simulator, StatsRegistry
from .cache import HIT_LATENCY, L1Cache

#: Forwarded tasks park at their home unit after this many bounces.  The
#: park is cheap to leave: the bridge pings the home unit when the lend's
#: metadata lands (see Level1Bridge._record_assignment) and every state
#: round retries as a backstop, so a small bounce budget minimizes wasted
#: messages during the metadata-update window.
MAX_BOUNCES = 1


class UnitState:
    """State snapshot returned to a STATE-GATHER (Section V-B)."""

    __slots__ = (
        "unit_id", "queue_workload", "finished_workload", "busy_cycles",
        "idle",
    )

    def __init__(
        self,
        unit_id: int,
        queue_workload: int,      # W_queue
        finished_workload: int,   # W_finish
        busy_cycles: int,         # cycles spent executing (for S_exe)
        idle: bool,
    ) -> None:
        self.unit_id = unit_id
        self.queue_workload = queue_workload
        self.finished_workload = finished_workload
        self.busy_cycles = busy_cycles
        self.idle = idle


@dataclass
class _Bundle:
    """One block plus the tasks lent with it (giver side)."""

    block_id: int
    tasks: List[Task]
    workload: int


class NDPUnit:
    """One bank + core + controller.

    Slotted: with more than 30 attributes, a plain instance outgrows the
    keys CPython 3.11 shares per class, and every ``self.x`` on the
    dispatch path would become a hashed dict lookup.
    """

    __slots__ = (
        "sim", "config", "unit_id", "system", "_tracker", "_registry",
        "bank", "mailbox", "cache",
        "_block_bytes", "_bank_bytes", "_dispatch_overhead",
        "_enqueue_overhead", "_dma_bytes_per_cycle", "_base_block",
        "_home_start", "_home_end",
        "islent", "borrowed", "_borrow_slots", "_next_borrow_slot",
        "_hot", "sketch", "reserved", "_pending_recalls", "_lend_pending",
        "queue", "future", "parked", "_queue_workload",
        "core_busy", "_task", "_task_cycles", "_children",
        "blocked_on_mailbox", "_same_block_spawns", "_backlog",
        "busy_cycles", "finish_time", "tasks_executed", "finished_workload",
        "_complete_event", "_retire_event",
        "_stat_forwarded", "_stat_bounced", "_stat_parked", "_stat_lent",
        "_stat_borrowed", "_stat_returned", "_stat_stall", "_stat_sram",
    )

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        stats: StatsRegistry,
        unit_id: int,
        system: "object",
        rng: DeterministicRNG,
    ):
        self.sim = sim
        self.config = config
        self.unit_id = unit_id
        self.system = system                   # NDPSystem facade
        # The facade's tracker and registry outlive the unit; hold them,
        # never their bound methods, which tests replace.
        self._tracker = system.tracker
        self._registry = system.registry
        self.bank = DRAMBank(sim, config, stats, unit_id)
        self.mailbox = Mailbox(config.unit_mem.mailbox_bytes)
        self.cache = L1Cache.from_config(config)

        block_bytes = config.comm.g_xfer_bytes
        bank_bytes = config.topology.bank_capacity_mb * 1024 * 1024
        self._block_bytes = block_bytes
        self._bank_bytes = bank_bytes
        core = config.core
        self._dispatch_overhead = core.dispatch_overhead_cycles
        self._enqueue_overhead = core.enqueue_overhead_cycles
        self._dma_bytes_per_cycle = core.local_dma_bytes_per_cycle
        self._base_block = unit_id * bank_bytes // block_bytes
        # Home blocks: [_home_start, _home_end).  A block belongs to the
        # bank holding its first byte (AddressMap.unit_of_block), hence
        # the ceilings.
        self._home_start = -(-(unit_id * bank_bytes) // block_bytes)
        self._home_end = -(-((unit_id + 1) * bank_bytes) // block_bytes)
        scale = config.balance.metadata_scale
        self.islent = IsLentBitmap(
            config.sram.islent_bytes, self._base_block, scale
        )
        self.borrowed = DataBorrowedTable(
            config.sram.databorrowed_bytes,
            config.sram.databorrowed_ways,
            scale,
        )
        self._borrow_slots = (
            config.unit_mem.borrowed_region_bytes // block_bytes
        )
        self._next_borrow_slot = 0

        self._hot = config.balance.enabled and config.balance.hot_selection
        self.sketch: Optional[HotDataSketch] = None
        self.reserved: Optional[ReservedQueue] = None
        if self._hot:
            # ``rng`` is the system's root stream; only a hot-selecting
            # unit draws from one.
            self.sketch = HotDataSketch(
                config.sketch, rng.substream(f"unit{unit_id}/sketch")
            )
            self.reserved = ReservedQueue(
                total_chunks=config.unit_mem.reserved_queue_chunks,
                chunk_bytes=block_bytes,
                static_chunks=(
                    config.sketch.buckets * config.sketch.entries_per_bucket
                ),
            )

        # Blocks the bridge recalled before their lend even arrived; they
        # bounce straight home on delivery (see recall_block).
        self._pending_recalls: set = set()
        # Blocks selected for lending whose bundle still sits in the
        # mailbox.  isLent is only committed when the bridge gathers the
        # bundle and installs its dataBorrowed entry (atomically from the
        # router's perspective), so no task ever bounces off a home whose
        # block location the bridge cannot yet resolve.
        self._lend_pending: set = set()

        # Task storage.
        self.queue: Deque[Task] = deque()
        self.future: Dict[int, List[Task]] = {}
        self.parked: Dict[int, List[Task]] = {}
        self._queue_workload = 0

        # Core state.  The core runs one task at a time: between dispatch
        # and retirement it holds that task, its cycles and its children.
        self.core_busy = False
        self._task: Optional[Task] = None
        self._task_cycles = 0
        self._children: List[Task] = []
        self.blocked_on_mailbox = False
        # Same-block spawn statistics: how often a task (of the
        # ``tasks_executed``) generates a child on its own data block.  A
        # migrated block attracts that follow-up work "for free" (Section
        # VI-C: migrated data automatically attract more tasks), so it
        # multiplies a bundle's effective value.  Only a hot-selecting
        # unit prices bundles, so only it counts.
        self._same_block_spawns = 0
        self._backlog: Deque[Message] = deque()
        self.busy_cycles = 0
        self.finish_time = 0
        self.tasks_executed = 0
        self.finished_workload = 0
        # The core's two events, bound once rather than once per task.
        self._complete_event = self._complete
        self._retire_event = self._retire

        scope = f"unit{unit_id}"
        self._stat_forwarded = stats.counter(scope, "tasks_forwarded")
        self._stat_bounced = stats.counter(scope, "tasks_bounced")
        self._stat_parked = stats.counter(scope, "tasks_parked")
        self._stat_lent = stats.counter(scope, "blocks_lent")
        self._stat_borrowed = stats.counter(scope, "blocks_borrowed")
        self._stat_returned = stats.counter(scope, "blocks_returned")
        self._stat_stall = stats.counter(scope, "mailbox_stall_events")
        self._stat_sram = stats.counter(scope, "sram_accesses")

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr // self._block_bytes

    def is_home(self, block_id: int) -> bool:
        return self._home_start <= block_id < self._home_end

    def holds_block(self, block_id: int) -> bool:
        """Is the block's data locally accessible right now?"""
        if self._home_start <= block_id < self._home_end:
            return not self.islent.is_lent(block_id)
        self._stat_sram.add()
        return self.borrowed.contains(block_id)

    # ------------------------------------------------------------------
    # task intake (spawned locally or scattered by the bridge)
    # ------------------------------------------------------------------
    def accept_task(self, task: Task, bounces: int = 0) -> None:
        """Queue a task locally, or forward it toward its data block.

        A task whose address lies beyond the machine is forwarded too,
        and :meth:`_forward` rejects it with ``ValueError``.
        """
        # The ownership test of holds_block, made once; the block is
        # handed on so that no later step divides again.
        block = task.data_addr // self._block_bytes
        if self._home_start <= block < self._home_end:
            if block in self.islent.lent:
                # Home unit but block lent out: the bridge metadata will
                # redirect it.  After several bounces the block must be
                # in return transit; park until it lands.
                if bounces >= MAX_BOUNCES:
                    self.parked.setdefault(block, []).append(task)
                    self._stat_parked.add()
                    return
                self._stat_bounced.add()
                self._forward(task, bounces + 1)
                return
        else:
            self._stat_sram.add()
            if not self.borrowed.contains(block):
                self._forward(task, bounces)
                return
        # The block is local: queue the task.
        if task.ts > self._tracker.epoch:
            self.future.setdefault(task.ts, []).append(task)
            return
        self._push_runnable(task, block)
        # A busy or blocked core picks the task up when it frees.
        if not (self.core_busy or self.blocked_on_mailbox):
            self._try_start()

    def _forward(self, task: Task, bounces: int) -> None:
        home = self.system.addr_map.unit_of_addr(task.data_addr)
        msg = TaskMessage(
            src_unit=self.unit_id, dst_unit=home, task=task, bounces=bounces
        )
        self._stat_forwarded.add()
        self._send(msg)

    def _push_runnable(self, task: Task, block: int) -> None:
        workload = task.workload_estimate
        if self._hot:
            result = self.sketch.observe(block, workload)
            self._stat_sram.add()
            if result.evicted_block is not None:
                # The evicted block's reserved tasks rejoin the main
                # queue's tail in their reserved order.
                self.queue.extend(self.reserved.evict(result.evicted_block))
            if result.resident and self.reserved.reserve(block, task):
                self._queue_workload += workload
                return
        self.queue.append(task)
        self._queue_workload += workload

    # ------------------------------------------------------------------
    # the core
    # ------------------------------------------------------------------
    @property
    def queue_workload(self) -> int:
        return self._queue_workload

    def _next_task(self) -> Optional[Task]:
        queue = self.queue
        reserved = self.reserved  # None unless the unit selects hot blocks
        while True:
            # Reserved tasks execute with normal priority -- only their
            # grouping (for hot-block scheduling) is special.  Preserve
            # global arrival order: pull whichever of the main queue head
            # and the oldest reserved chain head was created first.
            oldest = reserved.oldest() if reserved is not None else None
            if oldest is not None and (
                not queue or oldest[0] < queue[0].task_id
            ):
                block = oldest[1]
                task = reserved.pop_one(block)
            elif queue:
                task = queue.popleft()
                block = task.data_addr // self._block_bytes
            else:
                return None
            self._queue_workload -= task.workload_estimate
            # holds_block's test, inline.
            if self._home_start <= block < self._home_end:
                if block not in self.islent.lent:
                    return task
            else:
                self._stat_sram.add()
                if self.borrowed.contains(block):
                    return task
            # The block was lent away after this task was queued; it must
            # chase its data (data-first execution).
            self.accept_task(task)

    def _try_start(self) -> None:
        if self.core_busy or self.blocked_on_mailbox:
            return
        task = self._next_task()
        if task is None:
            return
        self.core_busy = True
        start = self.sim.now
        # Fetch the task's data element: from the L1 SRAM on a hit, or
        # from the local bank through the DMA engine on a miss (the access
        # arbiter serializes bank traffic with the bridge).
        if self.cache.access(task.data_addr):
            access_cycles = HIT_LATENCY
        else:
            access_cycles = self.bank.access(
                start, task.data_addr % self._bank_bytes, task.data_bytes,
                False, self._dma_bytes_per_cycle,
            ) - start
        duration = (
            self._dispatch_overhead
            + access_cycles
            + self._registry.dispatch_cost(task)
        )
        self._task = task
        self._task_cycles = duration
        self.sim.schedule(duration, self._complete_event)

    def _complete(self) -> None:
        """Run the dispatched task's body; its children cost the core
        ``enqueue_overhead_cycles`` each before :meth:`_retire`."""
        task = self._task
        ctx = TaskContext(self.unit_id, self.sim.now, self._tracker.epoch)
        self._registry.lookup(task.func)(ctx, task)
        children = ctx.spawned()
        child_cost = self._enqueue_overhead * len(children)
        self.busy_cycles += self._task_cycles + child_cost
        self.tasks_executed += 1
        self.finished_workload += task.workload_estimate
        if self._hot:
            block_bytes = self._block_bytes
            parent_block = task.data_addr // block_bytes
            for child in children:
                if child.data_addr // block_bytes == parent_block:
                    self._same_block_spawns += 1
        self._children = children
        if child_cost:
            self.sim.schedule(child_cost, self._retire_event)
        else:
            self._retire()

    def _retire(self) -> None:
        """Hand the task's children to the runtime and free the core."""
        task = self._task
        self.finish_time = self.sim.now
        tracker = self._tracker
        for child in self._children:
            # NDPSystem.spawn, without the hop through the facade.
            tracker.task_created(child.ts)
            self.accept_task(child)
        self.core_busy = False
        # Completion may end the epoch / the run, and may refill this
        # unit (an epoch listener), so the queue is read after it; an
        # empty one holds nothing for the core to start.
        tracker.task_completed(task.ts)
        if self._queue_workload and not tracker.finished:
            self._try_start()

    # ------------------------------------------------------------------
    # outgoing messages / mailbox stalls
    # ------------------------------------------------------------------
    def _send(self, msg: Message) -> None:
        self._tracker.message_departed(msg)
        # RowClone-style fabrics may short-circuit same-chip messages.
        fabric = self.system.fabric
        if fabric.has_direct_path and fabric.try_direct(self, msg):
            return
        if self._backlog or not self.mailbox.enqueue(msg):
            if not self._backlog:
                self._stat_stall.add()
            self._backlog.append(msg)
            self.blocked_on_mailbox = True
            return
        fabric.notify_enqueue(self)

    def on_mailbox_drained(self) -> None:
        """Bridge gathered from our mailbox; retry backlogged messages."""
        progressed = False
        while self._backlog and self.mailbox.enqueue(self._backlog[0]):
            self._backlog.popleft()
            progressed = True
        if progressed:
            self.system.fabric.notify_enqueue(self)
        if not self._backlog and self.blocked_on_mailbox:
            self.blocked_on_mailbox = False
            self._try_start()

    # ------------------------------------------------------------------
    # message handler (bridge SCATTER delivery)
    # ------------------------------------------------------------------
    def deliver_task_message(self, msg: TaskMessage) -> None:
        self._tracker.message_delivered(msg)
        self.accept_task(msg.task, msg.bounces)

    def deliver_data_message(self, msg: DataMessage) -> None:
        self._tracker.message_delivered(msg)
        block = msg.block_id
        if msg.returning:
            # Our own block coming home.
            self.islent.clear_lent(block)
            self._stat_returned.add()
            for task in self.parked.pop(block, []):
                self.accept_task(task)
            self._try_start()
            return
        # A borrowed block arriving (we are the receiver).
        if msg.home_unit == self.unit_id:
            # Our own block came back to us (e.g. a redirected self-lend):
            # treat it as a return.
            self.islent.clear_lent(block)
            self._lend_pending.discard(block)
            for task in self.parked.pop(block, []):
                self.accept_task(task)
            self._try_start()
            return
        if block in self._pending_recalls:
            # The bridge lost track of this block while it was in flight
            # and already asked for it back: return it without keeping it.
            self._pending_recalls.discard(block)
            self._return_block(block, msg.home_unit)
            return
        slot = self._next_borrow_slot % max(1, self._borrow_slots)
        self._next_borrow_slot += 1
        remapped = slot * self.config.comm.g_xfer_bytes
        victim = self.borrowed.insert(block, remapped, msg.home_unit)
        self._stat_borrowed.add()
        self._stat_sram.add()
        if victim is not None:
            self._return_block(victim.block_id, victim.home_unit)
        # Queued tasks skipped earlier may now find their block local.
        self._try_start()

    def _return_block(self, block_id: int, home_unit: int) -> None:
        g = self.config.comm.g_xfer_bytes
        self.cache.invalidate_range(block_id * g, g)
        msg = DataMessage(
            src_unit=self.unit_id,
            dst_unit=home_unit,
            block_id=block_id,
            block_bytes=self.config.comm.g_xfer_bytes,
            returning=True,
            home_unit=home_unit,
        )
        self._send(msg)

    def recall_block(self, block_id: int) -> None:
        """Bridge lost track of this borrowed block: send it home."""
        entry = self.borrowed.remove(block_id)
        if entry is not None:
            self._return_block(block_id, entry.home_unit)
        else:
            # The lend is still in transit toward us; return it on arrival.
            self._pending_recalls.add(block_id)

    # ------------------------------------------------------------------
    # command handler: SCHEDULE (giver side of load balancing)
    # ------------------------------------------------------------------
    def handle_schedule(self, budget: int) -> None:
        """Select ~``budget`` workload of tasks + blocks and mail them out."""
        if budget <= 0:
            return
        bundles = self._select_bundles(budget)
        # Selection may have pushed unlendable reserved tasks back to the
        # main queue while the core sat idle; restart it.
        self._try_start()
        for bundle in bundles:
            self._stat_lent.add()
            data = DataMessage(
                src_unit=self.unit_id,
                dst_unit=None,
                block_id=bundle.block_id,
                block_bytes=self.config.comm.g_xfer_bytes,
                lb_pending=True,
                bundle_workload=bundle.workload,
                home_unit=self.unit_id,
            )
            self._send(data)
            for task in bundle.tasks:
                self._send(TaskMessage(
                    src_unit=self.unit_id, dst_unit=None,
                    task=task, lb_assigned=True,
                ))

    def _select_bundles(self, budget: int) -> List[_Bundle]:
        selected: List[_Bundle] = []
        total = 0
        if self._hot:
            # Hottest-first selection from the sketch + reserved queue.
            # Selection is non-destructive: a chain that is unlendable or
            # unprofitable (its work would not cover its own transfer
            # time -- the "reduce transfer traffic" goal of Section VI-C)
            # simply stays reserved, preserving execution order.
            entries = sorted(
                self.sketch.entries(),
                key=lambda e: (-e.workload, e.block_id),
            )
            for entry in entries:
                if total >= budget:
                    break
                block = entry.block_id
                chain_workload = self.reserved.workload_of(block)
                n_tasks = self.reserved.task_count(block)
                if (
                    n_tasks == 0
                    or not self._lendable(block)
                    or not self._bundle_profitable(chain_workload, n_tasks)
                ):
                    continue
                self.sketch.remove(block)
                tasks = self.reserved.extract(block)
                self._queue_workload -= chain_workload
                # Mark immediately so the tail fallback below (and any
                # further SCHEDULE) cannot bundle the same block twice.
                self._lend_pending.add(block)
                selected.append(_Bundle(block, tasks, chain_workload))
                total += chain_workload
        if total < budget:
            selected.extend(self._select_from_tail(budget - total))
        return selected

    def _select_from_tail(self, budget: int) -> List[_Bundle]:
        """Traditional selection: tasks from the task queue tail."""
        picked: Dict[int, _Bundle] = {}
        skipped: List[Task] = []
        total = 0
        while self.queue and total < budget:
            task = self.queue.pop()
            block = self.block_of(task.data_addr)
            if not self._lendable(block) and block not in picked:
                skipped.append(task)
                continue
            self._queue_workload -= task.workload_estimate
            bundle = picked.get(block)
            if bundle is None:
                self._lend_pending.add(block)
                bundle = picked[block] = _Bundle(block, [], 0)
            bundle.tasks.append(task)
            bundle.workload += task.workload_estimate
            total += task.workload_estimate
        for task in reversed(skipped):
            self.queue.append(task)
        bundles: List[_Bundle] = []
        for bundle in picked.values():
            if self._hot and not self._bundle_profitable(
                bundle.workload, len(bundle.tasks)
            ):
                # Data-transfer-aware designs refuse unprofitable moves;
                # the classic work-stealing baseline (W) keeps them.
                self._lend_pending.discard(bundle.block_id)
                for task in bundle.tasks:
                    self.queue.append(task)
                    self._queue_workload += task.workload_estimate
                continue
            bundles.append(bundle)
        return bundles

    def commit_lend(self, block_id: int) -> None:
        """The bridge gathered this block's bundle: it is now officially
        elsewhere.  Called together with the bridge's dataBorrowed insert
        so routing metadata never disagrees with the home bitmap."""
        self._lend_pending.discard(block_id)
        if self.islent.tracks(block_id):
            self.islent.set_lent(block_id)
        g = self.config.comm.g_xfer_bytes
        self.cache.invalidate_range(block_id * g, g)

    def _bundle_profitable(self, workload: int, n_tasks: int) -> bool:
        """Is migrating this bundle worth its transfer time?

        Two conditions, both transfer-aware (Section VI-C):

        * the bundle's work (plus the follow-up chain its block will
          attract) must cover its own pipe time -- otherwise the move
          merely relocates a serial chain and pays traffic for it;
        * the giver must retain enough *other* work to overlap the
          transfer -- lending a dominant block from an otherwise-idle
          unit stalls the giver for the whole pipe time at zero gain.
        """
        cfg = self.config
        wire = cfg.comm.g_xfer_bytes + 64 * n_tasks
        transfer_cycles = 2.0 * wire / cfg.chip_link_bytes_per_cycle
        work_cycles = workload + n_tasks * (
            cfg.core.dispatch_overhead_cycles + HIT_LATENCY
        )
        # Follow-up credit: tasks that spawn children on their own block
        # bring a geometric chain of future work along with the block.
        executed = self.tasks_executed
        if executed:
            ratio = min(0.9, self._same_block_spawns / executed)
            work_cycles /= (1.0 - ratio)
        if work_cycles < transfer_cycles:
            return False
        remaining_after = self._queue_workload - workload
        return remaining_after >= transfer_cycles / 2.0

    def _lendable(self, block_id: int) -> bool:
        """Home blocks within the isLent range that are not already lent."""
        return (
            self.is_home(block_id)
            and self.islent.tracks(block_id)
            and not self.islent.is_lent(block_id)
            and block_id not in self._lend_pending
        )

    def retry_parked(self) -> None:
        """Re-dispatch parked tasks (called each state round).

        A task can park while the lend that displaced its block is still
        being assigned; by the time the metadata settles nothing would
        ever wake it.  Retrying sends it through the bridge once more: if
        the borrow entry now exists it reaches the borrower, otherwise it
        comes straight back and parks again until the block lands.
        """
        if not self.parked:
            return
        for block in list(self.parked):
            tasks = self.parked.pop(block)
            if self.holds_block(block):
                for task in tasks:
                    self.accept_task(task)
            else:
                for task in tasks:
                    self._forward(task, MAX_BOUNCES - 1)
        self._try_start()

    # ------------------------------------------------------------------
    # state gathering
    # ------------------------------------------------------------------
    def collect_state(self) -> UnitState:
        queued = self._queue_workload
        # Fields in order: unit_id, queue_workload, finished_workload,
        # busy_cycles, and idle (the core free and nothing queued).
        return UnitState(
            self.unit_id, queued, self.finished_workload, self.busy_cycles,
            not self.core_busy and queued == 0,
        )

    # ------------------------------------------------------------------
    # epoch barrier
    # ------------------------------------------------------------------
    def on_epoch(self, epoch: int) -> None:
        block_bytes = self._block_bytes
        for task in self.future.pop(epoch, []):
            self._push_runnable(task, task.data_addr // block_bytes)
        self._try_start()

    def __repr__(self) -> str:  # pragma: no cover
        return f"NDPUnit({self.unit_id}, q={len(self.queue)})"
