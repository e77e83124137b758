"""The assembled NDP system: units + fabric + tracker + partition map.

:class:`NDPSystem` is the facade applications and benchmarks interact
with: build it from a :class:`~repro.config.SystemConfig`, let the
application allocate arrays and register task functions, seed the initial
tasks, then :meth:`run` to completion.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..bridge.fabric import build_fabric
from ..config import SystemConfig, validate_config
from ..dram.address import AddressMap
from ..messages import DataMessage
from ..ndp.unit import NDPUnit
from ..sim import DeterministicRNG, SimulationError, Simulator, StatsRegistry
from .partition import PartitionMap
from .program import TaskRegistry
from .task import Task
from .tracker import RunTracker

#: How long a run may hold messages in flight while every core is idle
#: and neither a task completes nor an in-flight count moves before
#: :meth:`NDPSystem.check_stalled` calls it stalled.  A message crosses
#: the fabric in a few gather rounds (thousands of cycles), so this sits
#: far above any legitimate gap and far below ``max_cycles``.
STALL_WINDOW_CYCLES = 1_000_000


class NDPSystem:
    """One simulated DRAM-bank NDP machine."""

    def __init__(self, config: SystemConfig):
        validate_config(config)
        self.config = config
        self.sim = Simulator(max_cycles=config.max_cycles)
        self.stats = StatsRegistry()
        rng = DeterministicRNG(config.seed)
        self.addr_map = AddressMap(config)
        self.partition = PartitionMap(self.addr_map)
        self.registry = TaskRegistry()
        self.tracker = RunTracker()
        # Components derive the streams they draw from by name, straight
        # from the root, and build none they never draw from.
        self.units: List[NDPUnit] = [
            NDPUnit(self.sim, config, self.stats, unit_id, self, rng)
            for unit_id in range(config.topology.total_units)
        ]
        self.fabric = build_fabric(self.sim, config, self.stats, self, rng)
        self.tracker.on_epoch_advance(self._on_epoch_advance)
        # The run ends when the tracker says so, never by polling it.
        self.tracker.on_finish(self.sim.stop)
        self._ran = False
        #: The tracker's (completed, task msgs, data msgs) counts at the
        #: last sign of progress, and the cycle it was seen.
        self._progress: Optional[Tuple[int, int, int]] = None
        self._progress_at = 0

    # ------------------------------------------------------------------
    @property
    def has_level2(self) -> bool:
        return getattr(self.fabric, "level2", None) is not None

    def spawn(self, src_unit: int, task: Task) -> None:
        """A task function on ``src_unit`` spawned a child task.

        ``NDPUnit._retire`` makes these two calls itself, without the
        hop through the facade."""
        self.tracker.task_created(task.ts)
        self.units[src_unit].accept_task(task)

    def seed_task(self, task: Task) -> None:
        """Inject an initial task at its data element's home unit.

        Seeding models the input distribution step that precedes NDP
        execution (queries/roots scattered to their home banks); it incurs
        no simulated communication, identically for every design.
        """
        self.tracker.task_created(task.ts)
        home = self.addr_map.unit_of_addr(task.data_addr)
        self.units[home].accept_task(task)

    # ------------------------------------------------------------------
    def run(self) -> "NDPSystem":
        """Run the simulation until all tasks drain.

        Raises :class:`SimulationError` when the event queue empties while
        work is still outstanding (a lost task/message -- a model bug),
        when the run stalls (:meth:`check_stalled`), when ``max_cycles``
        is exceeded, when a message sits where the tracker does not
        count it in flight, when a unit still holds a task, or when the
        lending metadata disagrees (:meth:`_check_metadata`).

        Equivalent to :meth:`start` followed by :meth:`finish`; callers
        that need to pause at a cycle (the open-loop driver, perfbench)
        use the split form with :meth:`advance` in between.
        """
        return self.start().finish()

    def start(self) -> "NDPSystem":
        """Begin execution without draining any events.

        Starts the fabric and runs the initial progress check; the event
        queue is untouched, so a subsequent :meth:`advance`/:meth:`finish`
        continues exactly where an uninterrupted :meth:`run` would have
        started.
        """
        if self._ran:
            raise RuntimeError("system already ran; build a fresh one")
        self._ran = True
        self.fabric.start()
        self.tracker.check_progress()  # empty workload finishes immediately
        return self

    def advance(self, until: int) -> "NDPSystem":
        """Run events up to cycle ``until`` (inclusive), then pause.

        The pause point is a clean batch boundary: the engine dispatches
        whole same-cycle batches, so no cycle is ever half-executed.
        Requires :meth:`start` first.
        """
        if not self._ran:
            raise RuntimeError("call start() before advance()")
        if not self.tracker.finished:
            self.sim.run(until=until)
        return self

    def finish(self) -> "NDPSystem":
        """Drain the remaining events and close out the run."""
        if not self._ran:
            raise RuntimeError("call start() before finish()")
        if not self.tracker.finished:
            self.sim.run()
        if not self.tracker.finished:
            raise SimulationError(
                "event queue drained with work outstanding: "
                f"epoch={self.tracker.epoch}, "
                f"outstanding={self.tracker.outstanding(self.tracker.epoch)}, "
                f"task_msgs={self.tracker.task_messages_in_flight}"
            )
        self._check_resident()
        self._check_idle()
        self._check_metadata()
        return self

    def _check_resident(self) -> None:
        """A finished run counts no task message in flight, so none may
        sit anywhere; a data message may, but only while in flight."""
        for where, msgs in self._resident():
            for msg in msgs:
                if not (isinstance(msg, DataMessage) and msg.in_flight):
                    raise SimulationError(
                        f"{where} holds {msg.mtype.value} message "
                        f"{msg.msg_id} at the end of the run, but the "
                        f"tracker counts it delivered or never sent"
                    )

    def _check_idle(self) -> None:
        """A finished run has completed as many tasks as it created, so
        every core must be free and no unit may still hold a task.  A
        task message delivered twice makes up the count while its task
        sits in some unit; this names the first such unit."""
        for unit in self.units:
            reserved = unit.reserved
            held = {
                "queue": len(unit.queue),
                "reserved": reserved.total_tasks if reserved is not None else 0,
                "future": sum(map(len, unit.future.values())),
                "parked": sum(map(len, unit.parked.values())),
            }
            if not (unit.core_busy or any(held.values())):
                continue
            raise SimulationError(
                f"unit{unit.unit_id} is not idle at the end of the run: "
                f"core busy={unit.core_busy}, tasks held "
                + ", ".join(f"{k}={v}" for k, v in held.items())
            )

    def _check_metadata(self) -> None:
        """Data-first scheduling (Section VI-B) is sound only while the
        home isLent bitmaps and the dataBorrowed tables agree:

        * I1: a block lent at its home has exactly one holder;
        * I2: a block a unit holds is lent at its home;
        * I3: a rank bridge's entry for a block names a unit holding it.

        A block whose data message is still in flight, in a buffer
        (which :meth:`_check_resident` allows) or on a link, is between
        holders and excused.
        """
        moving = self.tracker.blocks_in_flight
        holders: Dict[int, List[int]] = {}
        for unit in self.units:
            for entry in unit.borrowed.entries():
                holders.setdefault(entry.block_id, []).append(unit.unit_id)
        for unit in self.units:
            for block in sorted(unit.islent.lent):
                held_by = holders.get(block, [])
                if len(held_by) != 1 and not moving.get(block):
                    raise SimulationError(
                        f"I1: block {block} is lent by unit{unit.unit_id} "
                        f"but held by {len(held_by)} units {held_by}"
                    )
        for block, held_by in holders.items():
            home = self.addr_map.unit_of_block(block)
            if not (self.units[home].islent.is_lent(block)
                    or moving.get(block)):
                raise SimulationError(
                    f"I2: block {block} is held by unit{held_by[0]} but "
                    f"its home unit{home} does not mark it lent"
                )
        for bridge in getattr(self.fabric, "rank_bridges", ()):
            for entry in bridge.borrowed.entries():
                block = entry.block_id
                if not (entry.value in holders.get(block, ())
                        or moving.get(block)):
                    raise SimulationError(
                        f"I3: bridge{bridge.global_rank} maps block {block} "
                        f"to unit{entry.value}, which does not hold it"
                    )

    # ------------------------------------------------------------------
    def check_stalled(self) -> None:
        """Raise :class:`SimulationError` if the run has stalled.

        Called from the fabric's periodic callbacks (the level-1 state
        gather, the host poll), which keep the event queue alive even
        when a lost message leaves nothing else to do.  A run is stalled
        once, for :data:`STALL_WINDOW_CYCLES`, messages have been in
        flight, no core has been busy, and no task has completed and no
        in-flight count has moved.
        """
        tracker = self.tracker
        progress = (
            tracker.total_completed,
            tracker.task_messages_in_flight,
            tracker.data_messages_in_flight,
        )
        if (
            progress != self._progress
            or not (progress[1] or progress[2])
            or any(unit.core_busy for unit in self.units)
        ):
            self._progress = progress
            self._progress_at = self.sim.now
        elif self.sim.now - self._progress_at >= STALL_WINDOW_CYCLES:
            raise SimulationError(self._stall_report())

    def _stall_report(self) -> str:
        tracker = self.tracker
        outstanding = {
            ts: tracker.outstanding(ts)
            for ts in sorted(tracker.created)
            if tracker.outstanding(ts)
        }
        resident = [
            f"{where}={len(msgs)}" for where, msgs in self._resident() if msgs
        ]
        return (
            f"run stalled: no progress since cycle {self._progress_at} "
            f"(now {self.sim.now}) with messages in flight and every core "
            f"idle: task_msgs={tracker.task_messages_in_flight}, "
            f"data_msgs={tracker.data_messages_in_flight}, outstanding "
            f"tasks by epoch {outstanding}; resident messages: "
            f"{', '.join(resident) or 'none in any mailbox or bridge buffer'}"
        )

    def _resident(self) -> Iterator[Tuple[str, tuple]]:
        """``(container, messages)`` for every unit mailbox and backlog
        and every bridge buffer: the messages that sit somewhere now.
        The stall report and :meth:`finish` both walk this."""
        for unit in self.units:
            yield f"unit{unit.unit_id}.mailbox", unit.mailbox.pending_messages()
            yield f"unit{unit.unit_id}.backlog", tuple(unit._backlog)
        for bridge in getattr(self.fabric, "rank_bridges", ()):
            rank = bridge.global_rank
            yield (
                f"bridge{rank}.up_mailbox",
                bridge.up_mailbox.pending_messages(),
            )
            for uid in sorted(bridge.scatter_buffers):
                yield (
                    f"bridge{rank}.scatter{uid}",
                    bridge.scatter_buffers[uid].pending_messages(),
                )
            yield f"bridge{rank}.backup", bridge.backup_messages()
        level2 = getattr(self.fabric, "level2", None)
        if level2 is not None:
            for rank, buf in enumerate(level2.down_buffers):
                yield f"level2.down{rank}", buf.pending_messages()

    def _on_epoch_advance(self, epoch: int) -> None:
        for unit in self.units:
            unit.on_epoch(epoch)

    # -- convenience views -------------------------------------------------
    @property
    def makespan(self) -> int:
        return max((u.finish_time for u in self.units), default=0)

    @property
    def total_tasks_executed(self) -> int:
        return sum(u.tasks_executed for u in self.units)
