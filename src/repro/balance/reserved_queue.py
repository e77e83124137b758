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


class ReservedQueue:
    """Chunked, bitmap-allocated reserved task storage.

    A block's chain is the list of its reserved tasks, never empty (the
    queue deletes a chain as its last task leaves).  A chain of ``n``
    tasks holds ``ceil(n / tasks_per_chunk)`` chunks, its statically
    owned one included, so the chunk count follows from the length and
    is not stored.
    """

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
        self._chains: Dict[int, List[Task]] = {}

    # -- capacity ----------------------------------------------------------
    @property
    def free_dynamic_chunks(self) -> int:
        return self._free_dynamic

    @property
    def total_tasks(self) -> int:
        return sum(len(chain) for chain in self._chains.values())

    @property
    def total_workload(self) -> int:
        return sum(
            task.workload_estimate
            for chain in self._chains.values() for task in chain
        )

    def blocks(self) -> List[int]:
        return list(self._chains.keys())

    def tasks_of(self, block_id: int) -> List[Task]:
        return list(self._chains.get(block_id, ()))

    def workload_of(self, block_id: int) -> int:
        return sum(
            task.workload_estimate for task in self._chains.get(block_id, ())
        )

    def task_count(self, block_id: int) -> int:
        return len(self._chains.get(block_id, ()))

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
            self._chains[block_id] = [task]
            return True
        if not len(chain) % self.tasks_per_chunk:
            # Every chunk the chain holds is full: link a dynamic one.
            if self._free_dynamic <= 0:
                return False
            self._free_dynamic -= 1
        chain.append(task)
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
        task = chain.pop(0)
        if not chain:
            # The chain held one chunk, the static one; only dynamic
            # chunks return to the pool.
            del self._chains[block_id]
        elif not len(chain) % self.tasks_per_chunk:
            # The last chunk just emptied: unlink it.
            self._free_dynamic += 1
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
            head_id = chain[0].task_id
            if best_block is None or head_id < best_id:
                best_id = head_id
                best_block = block_id
        return None if best_block is None else (best_id, best_block)

    def extract(self, block_id: int) -> List[Task]:
        """Remove and return all tasks of a block (being scheduled out)."""
        chain = self._chains.pop(block_id, None)
        if chain is None:
            return []
        # The dynamic chunks: all but the first of ceil(n / per-chunk).
        self._free_dynamic += (len(chain) - 1) // self.tasks_per_chunk
        return chain

    def evict(self, block_id: int) -> List[Task]:
        """Entry fell out of the sketch: return its tasks to the caller
        (they re-enter the main task queue)."""
        return self.extract(block_id)
