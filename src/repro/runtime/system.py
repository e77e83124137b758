"""The assembled NDP system: units + fabric + tracker + partition map.

:class:`NDPSystem` is the facade applications and benchmarks interact
with: build it from a :class:`~repro.config.SystemConfig`, let the
application allocate arrays and register task functions, seed the initial
tasks, then :meth:`run` to completion.
"""

from __future__ import annotations

from typing import List

from ..bridge.fabric import build_fabric
from ..config import SystemConfig, validate_config
from ..dram.address import AddressMap
from ..ndp.unit import NDPUnit
from ..sim import DeterministicRNG, SimulationError, Simulator, StatsRegistry
from .partition import PartitionMap
from .program import TaskRegistry
from .task import Task
from .tracker import RunTracker


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
        # Sanitizer mode implies message-lifecycle auditing: observation-
        # only instance wrappers, so plain runs pay zero overhead and
        # sanitized runs stay bit-identical (tests/test_flow_auditor.py).
        self.auditor = None
        if self.sim.sanitize:
            from ..flow.auditor import MessageAuditor

            self.auditor = MessageAuditor()
            self.auditor.attach(self)
        self.tracker.on_epoch_advance(self._on_epoch_advance)
        # The run ends when the tracker says so, never by polling it.
        self.tracker.on_finish(self.sim.stop)
        self._ran = False

    # ------------------------------------------------------------------
    @property
    def has_level2(self) -> bool:
        return getattr(self.fabric, "level2", None) is not None

    def spawn(self, src_unit: int, task: Task) -> None:
        """A task function on ``src_unit`` spawned a child task."""
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
        work is still outstanding (a lost task/message -- a model bug) or
        when ``max_cycles`` is exceeded.

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
        if self.auditor is not None:
            self.auditor.finish(self)
        return self

    # ------------------------------------------------------------------
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
