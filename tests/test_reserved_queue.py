"""Tests for the chunked reserved task queue (Section VI-C, Fig. 9)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.balance import ReservedQueue
from repro.runtime.task import Task


def task(addr=0, w=5):
    return Task(func="f", ts=0, data_addr=addr, workload=w)


def make_queue(total=10, chunk=256, static=2):
    # 256 B chunks / 32 B tasks = 8 tasks per chunk.
    return ReservedQueue(total, chunk, static)


def test_reserve_and_extract():
    q = make_queue()
    t1, t2 = task(w=5), task(w=7)
    assert q.reserve(1, t1)
    assert q.reserve(1, t2)
    assert q.workload_of(1) == 12
    assert 1 in q
    assert q.extract(1) == [t1, t2]
    assert 1 not in q
    assert q.total_tasks == 0


def test_first_chunk_is_static():
    q = make_queue(total=10, static=2)
    free0 = q.free_dynamic_chunks
    for _ in range(8):  # fills exactly the static chunk
        q.reserve(1, task())
    assert q.free_dynamic_chunks == free0


def test_overflow_allocates_dynamic_chunks():
    q = make_queue(total=10, static=2)
    for _ in range(9):  # 8 static + 1 overflow
        assert q.reserve(1, task())
    assert q.free_dynamic_chunks == 7


def test_pool_exhaustion_rejects():
    q = ReservedQueue(total_chunks=3, chunk_bytes=256, static_chunks=2)
    # Only one dynamic chunk: 8 (static) + 8 (dynamic) fit, 17th fails.
    for i in range(16):
        assert q.reserve(1, task()), i
    assert not q.reserve(1, task())
    assert q.total_tasks == 16


def test_extract_frees_dynamic_chunks():
    q = ReservedQueue(total_chunks=3, chunk_bytes=256, static_chunks=1)
    for _ in range(16):
        q.reserve(1, task())
    assert q.free_dynamic_chunks == 1
    q.extract(1)
    assert q.free_dynamic_chunks == 2


def test_evict_equals_extract():
    q = make_queue()
    t = task()
    q.reserve(5, t)
    assert q.evict(5) == [t]
    assert q.extract(5) == []


def test_multiple_blocks_tracked_independently():
    q = make_queue()
    q.reserve(1, task(w=3))
    q.reserve(2, task(w=4))
    assert sorted(q.blocks()) == [1, 2]
    assert q.workload_of(1) == 3
    assert q.workload_of(2) == 4
    assert q.total_workload == 7


def test_invalid_geometry():
    with pytest.raises(ValueError):
        ReservedQueue(0, 256, 0)
    with pytest.raises(ValueError):
        ReservedQueue(2, 256, 3)


def test_pop_one_dequeues_fifo():
    q = make_queue()
    t1, t2 = task(w=3), task(w=4)
    q.reserve(1, t1)
    q.reserve(1, t2)
    assert q.pop_one(1) is t1
    assert q.workload_of(1) == 4
    assert q.pop_one(1) is t2
    assert 1 not in q
    assert q.pop_one(1) is None


def test_pop_one_releases_chunks():
    q = ReservedQueue(total_chunks=4, chunk_bytes=256, static_chunks=1)
    for _ in range(16):  # 2 chunks (8 tasks each)
        q.reserve(1, task())
    assert q.free_dynamic_chunks == 2
    for _ in range(8):
        q.pop_one(1)
    assert q.free_dynamic_chunks == 3
    for _ in range(8):
        q.pop_one(1)
    assert q.free_dynamic_chunks == 3  # static chunk never returns
    assert 1 not in q


def test_oldest_is_the_smallest_head_task_id():
    q = make_queue()
    assert q.oldest() is None
    older, younger = task(), task()
    # Arrival order differs from task-id order (e.g. a future-epoch task
    # pushed at the barrier): the smallest head sits on the later chain.
    q.reserve(5, younger)
    q.reserve(2, older)
    assert q.oldest() == (older.task_id, 2)
    q.pop_one(2)
    assert q.oldest() == (younger.task_id, 5)
    q.pop_one(5)
    assert q.oldest() is None


def test_oldest_matches_brute_force_under_random_operations():
    rng = random.Random(13)
    # 64 B chunks hold 2 tasks: chains grow, shrink and get refused.
    q = ReservedQueue(total_chunks=8, chunk_bytes=64, static_chunks=3)
    arrivals = [task() for _ in range(600)]
    rng.shuffle(arrivals)  # arrival order is not task-id order
    for t in arrivals:
        op = rng.random()
        block = rng.randrange(6)
        if op < 0.6:
            q.reserve(block, t)
        elif op < 0.9:
            q.pop_one(block)
        else:
            q.extract(block)
        # oldest() reads every chain's head: no chain is ever empty.
        assert all(q.tasks_of(b) for b in q.blocks())
        heads = [(q.tasks_of(b)[0].task_id, b) for b in q.blocks()]
        assert q.oldest() == (min(heads) if heads else None)


# ----------------------------------------------------------------------
# list chains against the chunk-chain accounting they replaced
# ----------------------------------------------------------------------
class _BlockChain:
    __slots__ = ("chunks", "tasks", "workload")

    def __init__(self):
        self.chunks = 1
        self.tasks = []
        self.workload = 0


class ChunkChainModel:
    """The reference: a chain object per block that counts its chunks
    and its workload as tasks come and go."""

    def __init__(self, total_chunks, chunk_bytes, static_chunks,
                 avg_task_bytes=32):
        self.tasks_per_chunk = max(1, chunk_bytes // avg_task_bytes)
        self.free_dynamic_chunks = total_chunks - static_chunks
        self._chains = {}

    @property
    def total_tasks(self):
        return sum(len(c.tasks) for c in self._chains.values())

    def workload_of(self, block_id):
        chain = self._chains.get(block_id)
        return chain.workload if chain else 0

    def task_count(self, block_id):
        chain = self._chains.get(block_id)
        return len(chain.tasks) if chain else 0

    def reserve(self, block_id, task):
        chain = self._chains.get(block_id)
        if chain is None:
            chain = _BlockChain()
            self._chains[block_id] = chain
        elif len(chain.tasks) >= chain.chunks * self.tasks_per_chunk:
            if self.free_dynamic_chunks <= 0:
                return False
            self.free_dynamic_chunks -= 1
            chain.chunks += 1
        chain.tasks.append(task)
        chain.workload += task.workload_estimate
        return True

    def pop_one(self, block_id):
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
            self.free_dynamic_chunks += 1
        if not chain.tasks:
            self.free_dynamic_chunks += chain.chunks - 1
            del self._chains[block_id]
        return task

    def oldest(self):
        best_block = None
        best_id = 0
        for block_id, chain in self._chains.items():
            head_id = chain.tasks[0].task_id
            if best_block is None or head_id < best_id:
                best_id = head_id
                best_block = block_id
        return None if best_block is None else (best_id, best_block)

    def extract(self, block_id):
        chain = self._chains.pop(block_id, None)
        if chain is None:
            return []
        self.free_dynamic_chunks += chain.chunks - 1
        return chain.tasks

    evict = extract


BLOCKS = range(4)


def drive_both(geometry, ops, arrivals):
    """Apply ``ops`` to the list-based queue and to the model, checking
    after each step that they agree; returns how many reserves were
    refused."""
    queue, model = ReservedQueue(*geometry), ChunkChainModel(*geometry)
    tasks = iter(arrivals)
    refused = 0
    for op, block in ops:
        if op == "reserve":
            task = next(tasks)
            got, want = queue.reserve(block, task), model.reserve(block, task)
            assert got is want
            refused += not got
        elif op == "pop_one":
            assert queue.pop_one(block) is model.pop_one(block)
        else:
            got = getattr(queue, op)(block)
            want = getattr(model, op)(block)
            assert [id(t) for t in got] == [id(t) for t in want]
        assert queue.free_dynamic_chunks == model.free_dynamic_chunks
        assert queue.total_tasks == model.total_tasks
        for b in BLOCKS:
            assert queue.task_count(b) == model.task_count(b)
            assert queue.workload_of(b) == model.workload_of(b)
        assert queue.total_workload == sum(model.workload_of(b) for b in BLOCKS)
        assert queue.oldest() == model.oldest()
    return refused


#: (total, chunk bytes, static): 1, 2, 3 and 8 tasks per chunk; the
#: first two pools hold one and two dynamic chunks, so reserves fail.
GEOMETRIES = [(2, 32, 1), (3, 64, 1), (6, 96, 2), (12, 256, 4)]
OPS = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "reserve", "reserve", "pop_one",
                         "pop_one", "extract", "evict"]),
        st.sampled_from(BLOCKS),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEOMETRIES), OPS, st.randoms(use_true_random=False))
def test_list_chains_match_the_chunk_chain_model(geometry, ops, rng):
    arrivals = [task(w=rng.randint(1, 20)) for _ in ops]
    rng.shuffle(arrivals)  # arrival order is not task-id order
    drive_both(geometry, ops, arrivals)


@pytest.mark.parametrize("geometry", GEOMETRIES[:2])
def test_model_comparison_covers_refused_reserves(geometry):
    rng = random.Random(5)
    ops = [(rng.choice(["reserve"] * 4 + ["pop_one", "extract"]),
            rng.choice(BLOCKS)) for _ in range(400)]
    arrivals = [task(w=rng.randint(1, 20)) for _ in ops]
    rng.shuffle(arrivals)
    assert drive_both(geometry, ops, arrivals) > 0
