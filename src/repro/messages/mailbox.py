"""Mailbox ring buffer (Section V-A).

Each NDP unit statically reserves a *mailbox region* in its local DRAM bank
holding outgoing messages; the unit controller keeps the head and tail
pointers.  New messages append at the tail; the parent bridge's GATHER
drains from the head at ``G_xfer`` granularity.  When the region is full
the next enqueue stalls -- modelled by ``enqueue`` returning ``False`` so
the caller can block and retry after a drain.  That return is the only
full-region signal (nothing raises), and every rejection is counted in
``dropped_messages``/``dropped_bytes``.

Because one message may be larger than a single gather (a 256 B data block
with ``G_xfer`` = 64 B spans four gathers), the mailbox tracks how many
bytes of the head message have already been fetched; a message is handed to
the bridge only once fully transferred.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from .types import Message


class Mailbox:
    """FIFO ring buffer of outgoing messages with byte accounting."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("mailbox capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Message] = deque()
        #: L_mailbox: bytes waiting to be gathered.  Every message is at
        #: least one 64 B frame, so this is 0 exactly when the mailbox is
        #: empty.
        self.used_bytes = 0
        self._head_fetched = 0  # bytes of head message already gathered
        # Rejection accounting: a False return hands the message back to
        # the caller, and a caller that forgets it has silently dropped
        # it.  These counters record every rejection, so a test can
        # account for each one instead of losing it.
        self.dropped_messages = 0
        self.dropped_bytes = 0

    # -- producer side -----------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def enqueue(self, msg: Message) -> bool:
        """Append at the tail.  Returns False when the region is full.

        A rejected message stays the caller's responsibility; the
        rejection is recorded in ``dropped_messages``/``dropped_bytes``.
        """
        size = msg.size
        if size > self.capacity_bytes - self.used_bytes:
            self.dropped_messages += 1
            self.dropped_bytes += size
            return False
        self._queue.append(msg)
        self.used_bytes += size
        return True

    # -- consumer (bridge GATHER) side --------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    def is_empty(self) -> bool:
        return not self._queue

    def fetch(self, budget_bytes: int) -> Tuple[List[Message], int]:
        """Gather up to ``budget_bytes`` from the head.

        Returns ``(completed_messages, bytes_taken)``.  A partially
        fetched head message consumes budget but is only returned once its
        final bytes are taken in a later call.
        """
        if budget_bytes <= 0:
            raise ValueError("fetch budget must be positive")
        completed: List[Message] = []
        taken = 0
        queue = self._queue
        while queue and taken < budget_bytes:
            head = queue[0]
            size = head.size
            chunk = min(size - self._head_fetched, budget_bytes - taken)
            taken += chunk
            self._head_fetched += chunk
            if self._head_fetched == size:
                completed.append(head)
                queue.popleft()
                self.used_bytes -= size
                self._head_fetched = 0
        return completed, taken

    def pending_messages(self) -> Tuple[Message, ...]:
        """Snapshot of queued messages, oldest first (end-of-run checks,
        the stall report and tests)."""
        return tuple(self._queue)

    def drain_all(self) -> List[Message]:
        """Remove and return every queued message (host-forwarding path)."""
        out = list(self._queue)
        self._queue.clear()
        self.used_bytes = 0
        self._head_fetched = 0
        return out
