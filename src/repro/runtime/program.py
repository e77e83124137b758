"""Task-based message-passing programming model (Section IV).

Applications register *task functions* and spawn child tasks through the
``enqueue_task`` API::

    task_id enqueue_task(function, timestamp, data_addr, workload, args...)

A task function receives a :class:`TaskContext` and its :class:`Task`;
whatever child tasks it enqueues are routed by the runtime to the unit
holding the target data element (data-local execution) or wherever that
element has been lent by the load balancer.  Tasks with the same timestamp
run in the same bulk-synchronous epoch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .task import Task

TaskFunction = Callable[["TaskContext", Task], None]


class TaskRegistry:
    """Maps function names (the wire-format task type) to callables.

    A task type may also register a *dynamic cost function* evaluated when
    the task is dispatched: real execution cost is data-dependent (e.g. a
    stale label-propagation update costs a compare-and-drop, not a full
    neighbor push), and a cycle-accurate simulator would observe exactly
    that.  Without a cost function the task's ``actual_cycles``/estimate
    is charged.
    """

    def __init__(self):
        self._functions: Dict[str, TaskFunction] = {}
        self._costs: Dict[str, Callable[["Task"], int]] = {}

    def register(
        self,
        name: str,
        fn: TaskFunction,
        cost: Optional[Callable[["Task"], int]] = None,
    ) -> None:
        if name in self._functions:
            raise ValueError(f"task function {name!r} already registered")
        self._functions[name] = fn
        if cost is not None:
            self._costs[name] = cost

    def lookup(self, name: str) -> TaskFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"no task function registered as {name!r}") from None

    def dispatch_cost(self, task: "Task") -> int:
        """Cycles this task will take, evaluated at dispatch time."""
        cost_fn = self._costs.get(task.func)
        if cost_fn is None:
            return task.execution_cycles
        return max(1, int(cost_fn(task)))

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> List[str]:
        return sorted(self._functions)


class TaskContext:
    """Execution context handed to a task function.

    The context is the *only* interface application code has to the
    machine: it can enqueue child tasks and observe which unit and cycle it
    runs at.  Data accesses happen on the Python objects of the application
    itself -- their cost is modelled by the task's ``workload``/data sizes,
    not traced.
    """

    __slots__ = ("unit_id", "now", "epoch", "_spawned")

    def __init__(self, unit_id: int, now: int, epoch: int):
        self.unit_id = unit_id
        self.now = now
        self.epoch = epoch
        self._spawned: List[Task] = []

    def enqueue_task(
        self,
        func: str,
        ts: int,
        data_addr: int,
        workload: Optional[int] = None,
        args: Tuple = (),
        actual_cycles: Optional[int] = None,
        read_only: bool = False,
    ) -> Task:
        """Spawn a child task (the paper's ``enqueue_task`` API)."""
        if ts < self.epoch:
            raise ValueError(
                f"child timestamp {ts} precedes current epoch {self.epoch}"
            )
        # Positional: Task's first seven fields, in declaration order.
        task = Task(
            func, ts, data_addr, workload, args, actual_cycles, read_only
        )
        self._spawned.append(task)
        return task

    def spawned(self) -> List[Task]:
        return self._spawned
