"""Global progress tracking: epochs, quiescence, termination.

The bulk-synchronous model (Section IV) executes all tasks of timestamp
``t`` before any task of ``t+1``.  The tracker counts task creations and
completions per timestamp plus task messages in flight; when the current
epoch has no outstanding tasks and no task message is in transit, the
epoch barrier advances.  The run terminates when every timestamp has
drained and no unit holds future tasks.

Data messages (block lends/returns) intentionally do *not* hold the epoch
open: a block in flight without tasks cannot create epoch-``t`` work.
Tasks travelling alongside it are counted individually.

Every run checks each message's lifecycle here, since every send and
delivery passes through :meth:`RunTracker.message_departed` and
:meth:`RunTracker.message_delivered`.  A data message carries an
``in_flight`` flag: departing twice, or being delivered while not in
flight (a phantom or a double delivery), raises.  A task message needs no
flag: a duplicated, phantom or doubly delivered one completes its task
once too often, which :meth:`RunTracker.task_completed` rejects once the
surplus shows.  (If the surplus instead ends the last epoch while a real
task is still queued or running, that task never finishes;
``NDPSystem.finish`` then names the unit that still holds it.)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List

from ..messages.types import DataMessage, Message


class RunTracker:
    """Counts outstanding work and drives the epoch barrier."""

    def __init__(self):
        self.created: Dict[int, int] = defaultdict(int)
        self.completed: Dict[int, int] = defaultdict(int)
        self.task_messages_in_flight = 0
        self.data_messages_in_flight = 0
        #: Data messages in flight per block id.  A block listed here is
        #: between its holders, which :meth:`NDPSystem.finish` allows.
        self.blocks_in_flight: Dict[int, int] = defaultdict(int)
        self.epoch = 0
        self.finished = False
        self.total_created = 0
        self.total_completed = 0
        self._epoch_listeners: List[Callable[[int], None]] = []
        self._finish_listeners: List[Callable[[], None]] = []

    # -- wiring --------------------------------------------------------
    def on_epoch_advance(self, fn: Callable[[int], None]) -> None:
        self._epoch_listeners.append(fn)

    def on_finish(self, fn: Callable[[], None]) -> None:
        self._finish_listeners.append(fn)

    # -- event hooks -----------------------------------------------------
    def task_created(self, ts: int) -> None:
        if ts < self.epoch:
            raise ValueError(f"task created for past epoch {ts} < {self.epoch}")
        self.created[ts] += 1
        self.total_created += 1

    def task_completed(self, ts: int) -> None:
        completed = self.completed[ts] + 1
        self.completed[ts] = completed
        self.total_completed += 1
        if completed > self.created[ts]:
            raise RuntimeError(f"more completions than creations at ts={ts}")
        # While the current epoch has tasks outstanding or task messages
        # in flight the barrier cannot move: skip the full check.
        epoch = self.epoch
        if (self.task_messages_in_flight
                or self.created[epoch] != self.completed[epoch]):
            return
        self.check_progress()

    def message_departed(self, msg: Message) -> None:
        if type(msg) is DataMessage:
            if msg.in_flight:
                raise RuntimeError(
                    f"data message {msg.msg_id} departed twice"
                )
            msg.in_flight = True
            self.data_messages_in_flight += 1
            self.blocks_in_flight[msg.block_id] += 1
        else:
            self.task_messages_in_flight += 1

    def message_delivered(self, msg: Message) -> None:
        if type(msg) is DataMessage:
            if not msg.in_flight:
                raise RuntimeError(
                    f"data message {msg.msg_id} delivered while not in "
                    f"flight: a phantom or a double delivery"
                )
            msg.in_flight = False
            self.data_messages_in_flight -= 1
            self.blocks_in_flight[msg.block_id] -= 1
        else:
            self.task_messages_in_flight -= 1
            if self.task_messages_in_flight < 0:
                raise RuntimeError("task message in-flight count underflow")
        epoch = self.epoch  # busy epoch: see task_completed
        if (self.task_messages_in_flight
                or self.created[epoch] != self.completed[epoch]):
            return
        self.check_progress()

    # -- state queries -----------------------------------------------------
    def outstanding(self, ts: int) -> int:
        return self.created[ts] - self.completed[ts]

    @property
    def epoch_quiescent(self) -> bool:
        return (
            self.outstanding(self.epoch) == 0
            and self.task_messages_in_flight == 0
        )

    def _future_work_exists(self) -> bool:
        return any(
            self.created[ts] > self.completed[ts]
            for ts in self.created
            if ts > self.epoch
        )

    # -- barrier -------------------------------------------------------
    def check_progress(self) -> None:
        """Advance the epoch or finish the run if quiescent."""
        if self.finished:
            return
        while self.epoch_quiescent:
            if self._future_work_exists():
                self.epoch += 1
                for fn in self._epoch_listeners:
                    fn(self.epoch)
                # Listeners may have created epoch work; re-evaluate.
                continue
            self.finished = True
            for fn in self._finish_listeners:
                fn()
            return
