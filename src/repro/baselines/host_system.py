"""Design H: host-only execution without NDP (Section VII, Baselines).

The same task-based applications run on a simulated 16-core out-of-order
host (2.6 GHz, shared memory, two DDR4-2400 channels).  Because memory is
shared, any core can execute any task and work stealing is free: we model
a single global task queue all cores pull from.  Task latency is the NDP
execution cost scaled down by the host core's speed advantage, plus a
memory access serialized on the shared-bandwidth roofline.

The facade mirrors :class:`~repro.runtime.system.NDPSystem` closely enough
that applications run unmodified (``partition``, ``registry``, ``spawn``,
``seed_task``, ``run``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List

from ..config import SystemConfig, validate_config
from ..dram.address import AddressMap
from ..links import Link
from ..runtime.partition import PartitionMap
from ..runtime.program import TaskContext, TaskRegistry
from ..runtime.task import Task
from ..runtime.tracker import RunTracker
from ..sim import SimulationError, Simulator, StatsRegistry


class _HostCore:
    __slots__ = ("core_id", "busy", "busy_cycles", "finish_time")

    def __init__(self, core_id: int):
        self.core_id = core_id
        self.busy = False
        self.busy_cycles = 0
        self.finish_time = 0


class HostSystem:
    """Shared-memory multicore running the task programming model."""

    def __init__(self, config: SystemConfig):
        validate_config(config.replace(design=config.design))
        self.config = config
        self.sim = Simulator(max_cycles=config.max_cycles)
        self.stats = StatsRegistry()
        self.addr_map = AddressMap(config)
        self.partition = PartitionMap(self.addr_map)
        self.registry = TaskRegistry()
        self.tracker = RunTracker()
        host = config.host
        self.cores = [_HostCore(i) for i in range(host.cores)]
        # Shared memory bandwidth roofline in bytes per NDP cycle.
        mem_bpc = host.mem_bandwidth_gb_s * config.cycle_ns / 1.0
        self.mem_link = Link(self.sim, self.stats, "host_mem", mem_bpc)
        self.queue: Deque[Task] = deque()
        self.future: Dict[int, List[Task]] = {}
        self._speedup = host.speedup_vs_ndp_core
        # Writers to the same cacheline serialize (atomic updates /
        # coherence ping-pong): per-line busy horizon.
        self._line_busy: Dict[int, int] = {}
        self.tracker.on_epoch_advance(self._on_epoch_advance)
        self.tracker.on_finish(self.sim.stop)
        self._ran = False
        self.tasks_executed = 0

    # -- NDPSystem-compatible facade -----------------------------------------
    @property
    def units(self):  # apps sometimes size work by unit count
        return self.cores

    def spawn(self, src_unit: int, task: Task) -> None:
        self.tracker.task_created(task.ts)
        self._enqueue(task)

    def seed_task(self, task: Task) -> None:
        self.tracker.task_created(task.ts)
        self._enqueue(task)

    def _enqueue(self, task: Task) -> None:
        if task.ts > self.tracker.epoch:
            self.future.setdefault(task.ts, []).append(task)
            return
        self.queue.append(task)
        self._dispatch()

    def _on_epoch_advance(self, epoch: int) -> None:
        for task in self.future.pop(epoch, []):
            self.queue.append(task)
        self._dispatch()

    # -- execution ---------------------------------------------------------
    def _dispatch(self) -> None:
        for core in self.cores:
            if not self.queue:
                return
            if core.busy:
                continue
            task = self.queue.popleft()
            self._execute(core, task)

    def _execute(self, core: _HostCore, task: Task) -> None:
        core.busy = True
        host = self.config.host
        cost = self.registry.dispatch_cost(task)
        compute = max(1, math.ceil(cost / self._speedup))
        data_bytes = task.data_bytes
        mem_finish = self.mem_link.transfer(self.sim.now, data_bytes)
        # Beyond bandwidth, each task's working set costs one uncached
        # access latency, overlapped across the core's in-flight misses.
        latency_floor = max(
            1, host.mem_latency_cycles // host.mem_level_parallelism
        )
        duration = max(compute, mem_finish - self.sim.now, latency_floor)
        if not task.read_only:
            # Serialize the update's critical section on the cacheline.
            line = task.data_addr // 64
            start = max(self.sim.now, self._line_busy.get(line, 0))
            critical = max(duration, latency_floor)
            self._line_busy[line] = start + critical
            duration = (start - self.sim.now) + critical
        self.sim.schedule(
            duration, lambda: self._complete(core, task, duration)
        )

    def _complete(self, core: _HostCore, task: Task, duration: int) -> None:
        ctx = TaskContext(
            unit_id=core.core_id, now=self.sim.now, epoch=self.tracker.epoch
        )
        fn = self.registry.lookup(task.func)
        fn(ctx, task)
        core.busy_cycles += duration
        core.finish_time = self.sim.now
        core.busy = False
        self.tasks_executed += 1
        for child in ctx.spawned():
            self.tracker.task_created(child.ts)
            self._enqueue(child)
        self.tracker.task_completed(task.ts)
        if not self.tracker.finished:
            self._dispatch()

    def run(self) -> "HostSystem":
        if self._ran:
            raise RuntimeError("system already ran; build a fresh one")
        self._ran = True
        self.tracker.check_progress()  # empty workload finishes immediately
        if not self.tracker.finished:
            self.sim.run()
        if not self.tracker.finished:
            raise SimulationError("host run stalled with work outstanding")
        return self

    # -- result views --------------------------------------------------------
    @property
    def makespan(self) -> int:
        return max((c.finish_time for c in self.cores), default=0)

    @property
    def total_tasks_executed(self) -> int:
        return self.tasks_executed
