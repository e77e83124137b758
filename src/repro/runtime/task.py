"""The task abstraction of the programming model (Section IV).

A task is the unit of scheduling: the operations on one data element.  It
carries a function selector, a bulk-synchronization timestamp, the physical
address of its data element, an (optionally inaccurate) workload estimate,
and extra arguments -- exactly the attribute list of Section IV.

``actual_cycles`` is the ground-truth execution cost used by the core
model; applications may set it differently from ``workload`` to exercise
the paper's claim that estimates "can be inaccurate or even unspecified".
When ``workload`` is ``None`` the runtime substitutes a default estimate.
Both are fixed at construction: the derived ``workload_estimate`` and
``execution_cycles`` are computed once, not on every read.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

_task_ids = itertools.count()

#: Wire format sizing (Fig. 5): type/index/function/timestamp header plus
#: the 64-bit data address, workload byte, and 8 bytes per argument.
TASK_HEADER_BYTES = 13
ARG_BYTES = 8


class Task:
    """One data-centric task.

    A run builds one object per task, so the class is slotted (no
    ``__dict__``) and built by one ``__init__``.  The positional order of
    its first seven arguments is the one :meth:`TaskContext.enqueue_task`
    passes.
    """

    __slots__ = (
        "func", "ts", "data_addr", "workload", "args", "actual_cycles",
        "read_only", "data_bytes", "task_id",
        "workload_estimate", "execution_cycles",
    )

    DEFAULT_WORKLOAD = 16

    def __init__(
        self,
        func: str,
        ts: int,
        data_addr: int,
        workload: Optional[int] = None,
        args: Tuple = (),
        actual_cycles: Optional[int] = None,
        read_only: bool = False,
        data_bytes: int = 64,
        task_id: Optional[int] = None,
    ) -> None:
        self.func = func
        self.ts = ts
        self.data_addr = data_addr
        self.workload = workload
        self.args = args
        self.actual_cycles = actual_cycles
        #: Read-only tasks on the same element can run concurrently on a
        #: shared-memory host; writers serialize on the element's
        #: cacheline (atomic update / coherence ping-pong).  NDP execution
        #: is unaffected (one core per bank serializes either way).
        self.read_only = read_only
        #: Bytes of the data element the task touches (sizing its
        #: DRAM/cache access and its share of host memory bandwidth).
        self.data_bytes = data_bytes
        self.task_id = next(_task_ids) if task_id is None else task_id
        # Nothing changes ``workload`` or ``actual_cycles`` after
        # construction, so both costs are fixed here, once per task.
        # Each is a whole number of at least one cycle; the positive
        # ints every application passes are taken as they are.
        w = workload
        if w is None:
            w = self.DEFAULT_WORKLOAD
        elif w.__class__ is not int or w < 1:
            w = max(1, int(w))
        #: The estimate the scheduler sees (Section VI uses this).
        self.workload_estimate = w
        c = actual_cycles
        if c is None:
            c = w
        elif c.__class__ is not int or c < 1:
            c = max(1, int(c))
        #: The true cycles the core spends executing this task.
        self.execution_cycles = c

    @property
    def size_bytes(self) -> int:
        """Serialized size (before 64 B framing)."""
        return TASK_HEADER_BYTES + 8 + 1 + ARG_BYTES * len(self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task({self.func}, ts={self.ts}, addr={self.data_addr:#x}, "
            f"w={self.workload_estimate})"
        )
