"""Tests for the per-unit L1 cache model."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Design, scaled_config, tiny_config
from repro.ndp.cache import L1Cache

from .conftest import component_registry


def test_first_access_misses_then_hits():
    c = L1Cache(1024, ways=4)
    assert not c.access(0)
    assert c.access(0)
    assert c.access(63)      # same 64 B line
    assert not c.access(64)  # next line
    assert c.hits == 2
    assert c.misses == 2


def test_lru_eviction_within_set():
    # 4 lines, 2 ways -> 2 sets; lines 0 and 2 collide in set 0.
    c = L1Cache(4 * 64, ways=2)
    assert c.num_sets == 2
    c.access(0 * 64)
    c.access(2 * 64)
    c.access(0 * 64)          # touch line 0 -> line 2 becomes LRU
    c.access(4 * 64)          # set 0 again: evicts line 2
    assert c.access(0 * 64)   # still cached
    assert not c.access(2 * 64)


def test_invalidate_range():
    c = L1Cache(4096, ways=4)
    for off in range(0, 256, 64):
        c.access(1024 + off)
    c.invalidate_range(1024, 256)
    assert not c.access(1024)
    assert not c.access(1024 + 192)


def test_hit_rate():
    c = L1Cache(1024, ways=4)
    c.access(0)
    c.access(0)
    c.access(0)
    assert c.hit_rate == pytest.approx(2 / 3)
    assert L1Cache(1024, 4).hit_rate == 0.0


def test_from_config():
    c = L1Cache.from_config(tiny_config(Design.B))
    # 64 kB / 64 B lines = 1024 lines.
    assert c.num_sets * c.ways == 1024


def test_invalid_geometry():
    with pytest.raises(ValueError):
        L1Cache(0, 4)


def test_repeated_tasks_on_hot_element_run_faster():
    """End to end: the second task on the same element skips DRAM."""
    from repro.runtime.system import NDPSystem
    from repro.runtime.task import Task

    def run(addrs):
        system = NDPSystem(tiny_config(Design.B))
        system.registry.register("t", lambda ctx, task: None)
        for a in addrs:
            system.seed_task(Task(func="t", ts=0, data_addr=a, workload=5))
        system.run()
        return system.units[0].busy_cycles

    hot = run([128] * 10)            # same element ten times
    cold = run([i * 4096 for i in range(10)])  # ten distinct rows
    assert hot < cold


# ----------------------------------------------------------------------
# sparse tag array: a set exists only once a line was filled into it
# ----------------------------------------------------------------------
def filled_sets(cache):
    return [i for i, s in enumerate(cache._sets) if s is not None]


def test_fresh_128_unit_system_holds_no_cache_set():
    from repro.runtime.runner import build_system

    system = build_system(scaled_config(128, Design.O, seed=42))
    caches = [obj for obj in component_registry(system).values()
              if isinstance(obj, L1Cache)]
    assert len(caches) == 128
    assert [u.cache for u in system.units] == caches
    assert all(c.num_sets == 256 and not filled_sets(c) for c in caches)


def test_reads_allocate_no_set():
    c = L1Cache(4096, ways=4)
    c.invalidate(0)
    c.invalidate_range(0, 4096)
    assert not filled_sets(c)
    assert (c.hits, c.misses, c.hit_rate) == (0, 0, 0.0)
    c.access(64)
    assert filled_sets(c) == [1]
    c.invalidate(64)
    assert filled_sets(c) == [1]  # emptied, not dropped


class EagerL1:
    """The dense reference: every set allocated up front."""

    def __init__(self, capacity_bytes, ways, line_bytes=64):
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(1, max(ways, capacity_bytes // line_bytes) // ways)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr):
        line = addr // self.line_bytes
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = True
        return False

    def invalidate(self, addr):
        line = addr // self.line_bytes
        self.sets[line % self.num_sets].pop(line, None)

    def invalidate_range(self, base, nbytes):
        for addr in range(base, base + nbytes, self.line_bytes):
            self.invalidate(addr)


L1_OPS = st.lists(st.tuples(
    st.sampled_from(["access", "access", "access", "invalidate",
                     "invalidate_range"]),
    st.integers(min_value=0, max_value=64 * 40),
    st.integers(min_value=0, max_value=64 * 6),
), max_size=150)


@settings(max_examples=60, deadline=None)
@given(lines=st.integers(min_value=1, max_value=16),
       ways=st.integers(min_value=1, max_value=4), ops=L1_OPS)
def test_sparse_cache_matches_eager_reference(lines, ways, ops):
    sparse, eager = L1Cache(lines * 64, ways), EagerL1(lines * 64, ways)
    assert sparse.num_sets == eager.num_sets
    for op, addr, nbytes in ops:
        args = (addr, nbytes) if op == "invalidate_range" else (addr,)
        assert getattr(sparse, op)(*args) == getattr(eager, op)(*args)
        assert (sparse.hits, sparse.misses) == (eager.hits, eager.misses)
    # Same lines in the same LRU order in every set.
    assert [list(s or ()) for s in sparse._sets] == [list(s) for s in eager.sets]
