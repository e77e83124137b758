"""Tests for isLent / dataBorrowed metadata (Section VI-B)."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.balance import DataBorrowedTable, IsLentBitmap
from repro.balance.metadata import BorrowEntry

from .conftest import component_registry


class TestIsLentBitmap:
    def test_set_clear(self):
        bm = IsLentBitmap(2048, base_block=1000)
        assert not bm.is_lent(1005)
        bm.set_lent(1005)
        assert bm.is_lent(1005)
        assert bm.lent_count == 1
        bm.clear_lent(1005)
        assert not bm.is_lent(1005)

    def test_capacity_from_sram_bytes(self):
        bm = IsLentBitmap(2048, base_block=0)
        assert bm.capacity_blocks == 2048 * 8

    def test_scale_factor(self):
        quarter = IsLentBitmap(2048, 0, scale=0.25)
        four_x = IsLentBitmap(2048, 0, scale=4.0)
        assert quarter.capacity_blocks == 2048 * 2
        assert four_x.capacity_blocks == 2048 * 32

    def test_out_of_range_rejected(self):
        bm = IsLentBitmap(1, base_block=100)  # tracks 8 blocks
        assert bm.tracks(100) and bm.tracks(107)
        assert not bm.tracks(108) and not bm.tracks(99)
        with pytest.raises(ValueError):
            bm.set_lent(108)

    def test_clear_untracked_is_noop(self):
        bm = IsLentBitmap(1, base_block=0)
        bm.clear_lent(5)  # never set; must not raise


class TestDataBorrowedTable:
    def test_insert_lookup_remove(self):
        t = DataBorrowedTable(16 * 1024, ways=8)
        assert t.insert(42, value=7, home_unit=3) is None
        entry = t.lookup(42)
        assert entry.value == 7
        assert entry.home_unit == 3
        assert t.contains(42)
        removed = t.remove(42)
        assert removed.block_id == 42
        assert t.lookup(42) is None

    def test_capacity_entries(self):
        t = DataBorrowedTable(16 * 1024, ways=8)
        assert t.capacity_entries == 1024

    def test_lru_eviction_within_set(self):
        t = DataBorrowedTable(
            DataBorrowedTable.ENTRY_BYTES * 4, ways=4
        )  # 1 set, 4 ways
        assert t.num_sets == 1
        for block in range(4):
            t.insert(block, block, 0)
        t.lookup(0)  # touch 0: now 1 is LRU
        victim = t.insert(100, 100, 0)
        assert victim.block_id == 1
        assert t.contains(0)
        assert not t.contains(1)

    def test_update_existing_no_eviction(self):
        t = DataBorrowedTable(DataBorrowedTable.ENTRY_BYTES * 2, ways=2)
        t.insert(1, 10, 0)
        t.insert(3, 30, 0)
        assert t.insert(1, 11, 0) is None  # update, no victim
        assert t.lookup(1).value == 11

    def test_hit_miss_counters(self):
        t = DataBorrowedTable(1024, ways=4)
        t.insert(5, 1, 0)
        t.lookup(5)
        t.lookup(6)
        assert t.hits == 1
        assert t.misses == 1

    def test_scale_changes_capacity(self):
        small = DataBorrowedTable(16 * 1024, 8, scale=0.25)
        big = DataBorrowedTable(16 * 1024, 8, scale=4.0)
        assert small.capacity_entries == 256
        assert big.capacity_entries == 4096

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=200))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        t = DataBorrowedTable(DataBorrowedTable.ENTRY_BYTES * 16, ways=4)
        live = set()
        for b in blocks:
            victim = t.insert(b, b, 0)
            live.add(b)
            if victim is not None:
                live.discard(victim.block_id)
            assert len(t) <= t.capacity_entries
        assert {e.block_id for e in t.entries()} == live


# ----------------------------------------------------------------------
# sparse table: a set exists only once an entry was inserted into it
# ----------------------------------------------------------------------
def filled_sets(table):
    return [i for i, s in enumerate(table._sets) if s is not None]


def test_fresh_128_unit_system_holds_no_borrowed_set():
    from repro.config import Design, scaled_config
    from repro.runtime.runner import build_system

    system = build_system(scaled_config(128, Design.O, seed=42))
    tables = [obj for obj in component_registry(system).values()
              if isinstance(obj, DataBorrowedTable)]
    level2 = system.fabric.level2
    owners = list(system.units) + list(level2.rank_bridges) + [level2]
    assert len(tables) == len(owners) == 131
    assert {id(t) for t in tables} == {id(o.borrowed) for o in owners}
    assert all(not filled_sets(t) and len(t) == 0 for t in tables)
    assert level2.borrowed.num_sets == 4096


def test_reads_allocate_no_set():
    t = DataBorrowedTable(16 * 1024, ways=8)
    assert t.lookup(5) is None
    assert not t.contains(5)
    assert t.remove(5) is None
    assert t.entries() == [] and len(t) == 0
    assert not filled_sets(t)
    assert (t.hits, t.misses, t.evictions) == (0, 1, 0)
    t.insert(5, 1, 0)
    t.remove(5)
    assert filled_sets(t) == [5]  # emptied, not dropped


class EagerTable:
    """The dense reference: every set allocated up front."""

    def __init__(self, capacity_bytes, ways):
        total = max(ways, capacity_bytes // DataBorrowedTable.ENTRY_BYTES)
        self.ways = ways
        self.num_sets = max(1, total // ways)
        self.sets = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = self.misses = self.evictions = 0

    def lookup(self, block_id):
        s = self.sets[block_id % self.num_sets]
        entry = s.get(block_id)
        if entry is None:
            self.misses += 1
            return None
        s.move_to_end(block_id)
        self.hits += 1
        return entry

    def contains(self, block_id):
        return block_id in self.sets[block_id % self.num_sets]

    def insert(self, block_id, value, home_unit):
        s = self.sets[block_id % self.num_sets]
        if block_id in s:
            s[block_id].value = value
            s.move_to_end(block_id)
            return None
        victim = None
        if len(s) >= self.ways:
            _, victim = s.popitem(last=False)
            self.evictions += 1
        s[block_id] = BorrowEntry(block_id, value, home_unit)
        return victim

    def remove(self, block_id):
        return self.sets[block_id % self.num_sets].pop(block_id, None)

    def entries(self):
        return [e for s in self.sets for e in s.values()]

    def __len__(self):
        return sum(len(s) for s in self.sets)


TABLE_OPS = st.lists(st.tuples(
    st.sampled_from(["insert", "insert", "lookup", "contains", "remove"]),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=3),
), max_size=150)


@settings(max_examples=60, deadline=None)
@given(entries=st.integers(min_value=1, max_value=16),
       ways=st.integers(min_value=1, max_value=4), ops=TABLE_OPS)
def test_sparse_table_matches_eager_reference(entries, ways, ops):
    capacity = entries * DataBorrowedTable.ENTRY_BYTES
    sparse, eager = DataBorrowedTable(capacity, ways), EagerTable(capacity, ways)
    assert sparse.num_sets == eager.num_sets
    for op, block, value in ops:
        args = (block, value, value + 100) if op == "insert" else (block,)
        # Returned entries and victims compare field by field.
        assert getattr(sparse, op)(*args) == getattr(eager, op)(*args)
        assert (sparse.hits, sparse.misses, sparse.evictions) == (
            eager.hits, eager.misses, eager.evictions)
        assert len(sparse) == len(eager)
        assert sparse.entries() == eager.entries()
