"""In-DRAM reserved task queue (Section VI-C, Fig. 9 right).

Tasks whose data block is resident in the hot-data sketch are parked here
instead of the main task queue so they can be lent out together with their
block.  Storage is organized as fixed-size chunks (``G_xfer`` bytes each):
every sketch entry owns an initial chunk; overflow chunks are allocated
dynamically and linked, with a 1-bit-per-chunk allocation bitmap.  When the
chunk pool is exhausted, new tasks fall back to the main queue -- the
bounded-SRAM behaviour the hardware would have.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..runtime.task import Task


class _BlockChain:
    """The chunk chain holding one block's reserved tasks; never empty
    (the queue deletes a chain as its last task leaves)."""

    __slots__ = ("chunks", "tasks", "workload")

    def __init__(self) -> None:
        self.chunks = 1                  # includes the statically owned chunk
        self.tasks: List[Task] = []
        self.workload = 0


class ReservedQueue:
    """Chunked, bitmap-allocated reserved task storage."""

    def __init__(
        self,
        total_chunks: int,
        chunk_bytes: int,
        static_chunks: int,
        avg_task_bytes: int = 32,
    ):
        if total_chunks <= 0 or chunk_bytes <= 0:
            raise ValueError("chunk pool geometry must be positive")
        if static_chunks > total_chunks:
            raise ValueError("static chunks exceed the pool")
        self.tasks_per_chunk = max(1, chunk_bytes // avg_task_bytes)
        # Chunks statically assigned to sketch entries are always "allocated".
        self._free_dynamic = total_chunks - static_chunks
        self._chains: Dict[int, _BlockChain] = {}

    # -- capacity ----------------------------------------------------------
    @property
    def free_dynamic_chunks(self) -> int:
        return self._free_dynamic

    @property
    def total_tasks(self) -> int:
        return sum(len(c.tasks) for c in self._chains.values())

    @property
    def total_workload(self) -> int:
        return sum(c.workload for c in self._chains.values())

    def blocks(self) -> List[int]:
        return list(self._chains.keys())

    def tasks_of(self, block_id: int) -> List[Task]:
        chain = self._chains.get(block_id)
        return list(chain.tasks) if chain else []

    def workload_of(self, block_id: int) -> int:
        chain = self._chains.get(block_id)
        return chain.workload if chain else 0

    def task_count(self, block_id: int) -> int:
        chain = self._chains.get(block_id)
        return len(chain.tasks) if chain else 0

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._chains

    # -- mutation ----------------------------------------------------------
    def reserve(self, block_id: int, task: Task) -> bool:
        """Park ``task`` under its block's chain.

        Returns ``False`` (task must go to the main queue) when a new chunk
        would be needed and the dynamic pool is exhausted.
        """
        chain = self._chains.get(block_id)
        if chain is None:
            # A new chain's static chunk holds at least one task, so the
            # chain is never left empty.
            chain = _BlockChain()
            self._chains[block_id] = chain
        elif len(chain.tasks) >= chain.chunks * self.tasks_per_chunk:
            if self._free_dynamic <= 0:
                return False
            self._free_dynamic -= 1
            chain.chunks += 1
        chain.tasks.append(task)
        chain.workload += task.workload_estimate
        return True

    def pop_one(self, block_id: int) -> Optional[Task]:
        """Dequeue a single task from a block's chain for local execution.

        Reserved tasks run with normal priority when not scheduled out;
        only their *grouping* is special.  Chunks are released as the
        chain shrinks.
        """
        chain = self._chains.get(block_id)
        if chain is None:
            return None
        task = chain.tasks.pop(0)
        chain.workload -= task.workload_estimate
        if (
            chain.chunks > 1
            and len(chain.tasks) <= (chain.chunks - 1) * self.tasks_per_chunk
        ):
            chain.chunks -= 1
            self._free_dynamic += 1
        if not chain.tasks:
            # The first chunk is the static one (a chain holds at least
            # one); only dynamic chunks return to the pool.
            self._free_dynamic += chain.chunks - 1
            del self._chains[block_id]
        return task

    def oldest(self) -> Optional[Tuple[int, int]]:
        """``(task id, block)`` of the chain head that arrived earliest
        (smallest task id), or None when no task is reserved.

        Chains sit in creation order, which is not head task-id order
        (popping advances a head, and tasks arrive out of id order), so
        this scans every chain head once.  No chain is empty, so every
        chain has a head.
        """
        best_block: Optional[int] = None
        best_id = 0
        for block_id, chain in self._chains.items():
            head_id = chain.tasks[0].task_id
            if best_block is None or head_id < best_id:
                best_id = head_id
                best_block = block_id
        return None if best_block is None else (best_id, best_block)

    def extract(self, block_id: int) -> List[Task]:
        """Remove and return all tasks of a block (being scheduled out)."""
        chain = self._chains.pop(block_id, None)
        if chain is None:
            return []
        self._free_dynamic += chain.chunks - 1  # the dynamic chunks
        return chain.tasks

    def evict(self, block_id: int) -> List[Task]:
        """Entry fell out of the sketch: return its tasks to the caller
        (they re-enter the main task queue)."""
        return self.extract(block_id)
