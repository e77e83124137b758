"""SRAM message buffers inside the bridges (Section V-A).

The level-1 bridge holds, per child bank, a 1 kB *scatter buffer* of
messages awaiting SCATTER; a shared *backup buffer* absorbing overflow; and
a *mailbox region* for messages headed to the upper level.  All three are
bounded SRAM structures -- when the backup buffer is also full the bridge
pauses gathering, which is exactly the backpressure this class exposes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from .types import Message


class MessageBuffer:
    """A bounded FIFO of whole messages with byte accounting."""

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Message] = deque()
        #: Bytes buffered.  Every message is at least one 64 B frame, so
        #: this is 0 exactly when the buffer is empty.
        self.used_bytes = 0
        # Rejection accounting, mirroring Mailbox: every push that
        # returns False is recorded so no message can vanish silently.
        self.dropped_messages = 0
        self.dropped_bytes = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def push(self, msg: Message) -> bool:
        size = msg.size
        if size > self.capacity_bytes - self.used_bytes:
            # A message larger than the whole buffer is physically a train
            # of 64 B sub-messages streamed through it; accept it alone in
            # an otherwise-empty buffer (store-and-forward minimum), else
            # it could never traverse this hop at all.
            if not (size > self.capacity_bytes and not self._queue):
                self.dropped_messages += 1
                self.dropped_bytes += size
                return False
        self._queue.append(msg)
        self.used_bytes += size
        return True

    def force_push(self, msg: Message) -> None:
        """Append unconditionally, ignoring the capacity bound.

        The sanctioned soft-overflow escape (the level-2 bridge mirrors
        the level-1 backup-buffer behaviour rather than wedging a round):
        the message is admitted, ``used_bytes`` may exceed
        ``capacity_bytes``, and -- unlike poking the private queue -- the
        byte accounting stays coherent.
        """
        self._queue.append(msg)
        self.used_bytes += msg.size

    def pop(self) -> Optional[Message]:
        if not self._queue:
            return None
        msg = self._queue.popleft()
        self.used_bytes -= msg.size
        return msg

    def pop_up_to(self, budget_bytes: int) -> Tuple[List[Message], int]:
        """Pop whole messages from the head totalling <= ``budget_bytes``.

        Returns ``(messages, bytes_taken)``, as :meth:`Mailbox.fetch` does.
        """
        out: List[Message] = []
        taken = 0
        queue = self._queue
        while queue:
            size = queue[0].size
            # Stop at the first message past the budget, unless it is the
            # head: a single over-budget message still moves alone (the
            # link model charges its true size), and nothing follows it.
            if taken + size > budget_bytes and out:
                break
            out.append(queue.popleft())
            self.used_bytes -= size
            taken += size
        return out, taken

    def pending_messages(self) -> Tuple[Message, ...]:
        """Snapshot of buffered messages, oldest first (end-of-run checks,
        the stall report and tests)."""
        return tuple(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def is_empty(self) -> bool:
        return not self._queue

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MessageBuffer({self.name}, "
            f"{self.used_bytes}/{self.capacity_bytes}B)"
        )
