"""Tests for the chunked reserved task queue (Section VI-C, Fig. 9)."""

import random

import pytest

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
