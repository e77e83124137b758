"""Hot-data sketch (Section VI-C).

A simplified HeavyGuardian [79]: a set-associative buffer of
``(block address, workload counter)`` entries.  When a task on block ``x``
with workload ``w`` arrives:

* hit  -> add ``w`` to the entry (saturating at the counter width);
* miss with free space -> insert ``(x, w)``;
* miss, bucket full -> with probability ``b ** -e_min.workload`` decay the
  bucket's minimum entry by ``w``; if its counter drops below zero the
  entry is replaced by ``(x, w)``.

``b = 1.08`` per the HeavyGuardian analysis the paper cites.  Unlike full
HeavyGuardian there is no cold-item stage -- the paper explicitly drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..config import SketchConfig
from ..sim import DeterministicRNG


@dataclass
class SketchEntry:
    block_id: int
    workload: int


@dataclass(frozen=True)
class ObserveResult:
    """Outcome of one sketch observation.

    ``resident`` -- the observed block now has a sketch entry (so its task
    belongs in the reserved queue).  ``evicted_block`` -- a previously
    resident block that was replaced; its reserved tasks must return to the
    main task queue.
    """

    resident: bool
    evicted_block: Optional[int] = None


#: The outcomes that evict nothing, shared by every observation (the type
#: is frozen, so sharing is safe); only an eviction allocates a result.
_RESIDENT = ObserveResult(True)
_NOT_RESIDENT = ObserveResult(False)


class HotDataSketch:
    """Approximate top-hot-block tracker, one per NDP unit."""

    def __init__(self, config: SketchConfig, rng: DeterministicRNG):
        self.config = config
        self.rng = rng
        self._buckets: List[Dict[int, SketchEntry]] = [
            {} for _ in range(config.buckets)
        ]
        # The config is frozen: observe() reads its fields from here.
        self._n_buckets = config.buckets
        self._ways = config.entries_per_bucket
        self._cmax = config.counter_max
        self._decay_base = config.decay_base

    def _bucket_of(self, block_id: int) -> Dict[int, SketchEntry]:
        return self._buckets[block_id % self._n_buckets]

    def observe(self, block_id: int, workload: int) -> ObserveResult:
        """Record a task's workload against its block.

        Returns an :class:`ObserveResult`; ``resident`` is ``True`` when
        the block now has a sketch entry (the caller should steer the task
        into the reserved queue), and ``evicted_block`` names a replaced
        entry whose reserved tasks must be released.
        """
        if workload <= 0:
            raise ValueError("workload must be positive")
        bucket = self._buckets[block_id % self._n_buckets]
        entry = bucket.get(block_id)
        cmax = self._cmax
        if entry is not None:
            total = entry.workload + workload
            entry.workload = total if total < cmax else cmax
            return _RESIDENT
        if len(bucket) < self._ways:
            bucket[block_id] = SketchEntry(block_id, min(cmax, workload))
            return _RESIDENT
        # Bucket full: probabilistic decay of the minimum entry.
        e_min = min(bucket.values(), key=lambda e: (e.workload, e.block_id))
        decay_prob = self._decay_base ** (-e_min.workload)
        if self.rng.random() < decay_prob:
            e_min.workload -= workload
            if e_min.workload < 0:
                evicted = e_min.block_id
                del bucket[evicted]
                bucket[block_id] = SketchEntry(block_id, min(cmax, workload))
                return ObserveResult(True, evicted_block=evicted)
        return _NOT_RESIDENT

    def contains(self, block_id: int) -> bool:
        return block_id in self._bucket_of(block_id)

    def workload_of(self, block_id: int) -> int:
        entry = self._bucket_of(block_id).get(block_id)
        return entry.workload if entry else 0

    def hottest(self) -> Optional[SketchEntry]:
        """The entry with the largest tracked workload, or None if empty."""
        best: Optional[SketchEntry] = None
        for bucket in self._buckets:
            for entry in bucket.values():
                if best is None or (entry.workload, -entry.block_id) > (
                    best.workload, -best.block_id
                ):
                    best = entry
        return best

    def remove(self, block_id: int) -> Optional[SketchEntry]:
        return self._bucket_of(block_id).pop(block_id, None)

    def entries(self) -> Iterator[SketchEntry]:
        for bucket in self._buckets:
            yield from bucket.values()

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets)

    @property
    def sram_bytes(self) -> int:
        """Sketch SRAM footprint: address + counter per entry."""
        entry_bytes = 8 + self.config.counter_bytes  # 58-bit addr padded
        return self.config.buckets * self.config.entries_per_bucket * entry_bytes
