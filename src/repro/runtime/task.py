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
from dataclasses import dataclass, field
from typing import Optional, Tuple

_task_ids = itertools.count()

#: Wire format sizing (Fig. 5): type/index/function/timestamp header plus
#: the 64-bit data address, workload byte, and 8 bytes per argument.
TASK_HEADER_BYTES = 13
ARG_BYTES = 8


@dataclass
class Task:
    """One data-centric task."""

    func: str
    ts: int
    data_addr: int
    workload: Optional[int] = None
    args: Tuple = ()
    actual_cycles: Optional[int] = None
    #: Read-only tasks on the same element can run concurrently on a
    #: shared-memory host; writers serialize on the element's cacheline
    #: (atomic update / coherence ping-pong).  NDP execution is unaffected
    #: (one core per bank serializes either way).
    read_only: bool = False
    #: Bytes of the data element the task touches (sizing its DRAM/cache
    #: access and its share of host memory bandwidth).
    data_bytes: int = 64
    task_id: int = field(default_factory=_task_ids.__next__)
    #: The estimate the scheduler sees (Section VI uses this).
    workload_estimate: int = field(init=False, compare=False, repr=False)
    #: The true cycles the core spends executing this task.
    execution_cycles: int = field(init=False, compare=False, repr=False)

    DEFAULT_WORKLOAD = 16

    def __post_init__(self) -> None:
        # Nothing changes ``workload`` or ``actual_cycles`` after
        # construction, so both costs are fixed here, once per task.
        # Each is a whole number of at least one cycle; the positive
        # ints every application passes are taken as they are.
        w = self.workload
        if w is None:
            w = self.DEFAULT_WORKLOAD
        elif w.__class__ is not int or w < 1:
            w = max(1, int(w))
        self.workload_estimate = w
        c = self.actual_cycles
        if c is None:
            c = w
        elif c.__class__ is not int or c < 1:
            c = max(1, int(c))
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
