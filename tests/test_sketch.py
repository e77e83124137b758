"""Tests for the HeavyGuardian-style hot-data sketch (Section VI-C)."""

from hypothesis import given, settings, strategies as st

from repro.balance import HotDataSketch
from repro.config import SketchConfig
from repro.sim import DeterministicRNG


def make_sketch(buckets=16, entries=16):
    cfg = SketchConfig(buckets=buckets, entries_per_bucket=entries)
    return HotDataSketch(cfg, DeterministicRNG(1, "sketch"))


def test_insert_and_hit():
    sk = make_sketch()
    r = sk.observe(10, 5)
    assert r.resident and r.evicted_block is None
    r = sk.observe(10, 3)
    assert r.resident
    assert sk.workload_of(10) == 8
    assert sk.contains(10)


def test_counter_saturates_at_byte_width():
    sk = make_sketch()
    sk.observe(10, 200)
    sk.observe(10, 200)
    assert sk.workload_of(10) == 255


def test_hottest_finds_max():
    sk = make_sketch()
    sk.observe(1, 5)
    sk.observe(2, 50)
    sk.observe(3, 20)
    assert sk.hottest().block_id == 2
    sk.remove(2)
    assert sk.hottest().block_id == 3


def test_empty_sketch_has_no_hottest():
    sk = make_sketch()
    assert sk.hottest() is None
    assert len(sk) == 0


def test_full_bucket_decays_probabilistically():
    # One bucket with 2 entries: all even blocks collide into bucket 0.
    sk = make_sketch(buckets=1, entries=2)
    sk.observe(0, 1)
    sk.observe(1, 1)
    # Hammer a new block; the weak existing entries must eventually be
    # replaced (decay probability b^-1 is ~0.93).
    replaced = False
    for _ in range(50):
        r = sk.observe(2, 1)
        if r.resident:
            replaced = True
            break
    assert replaced


def test_eviction_reports_victim():
    sk = make_sketch(buckets=1, entries=1)
    sk.observe(7, 1)
    evicted = None
    for _ in range(100):
        r = sk.observe(8, 5)
        if r.evicted_block is not None:
            evicted = r.evicted_block
            break
    assert evicted == 7


def test_hot_items_survive_cold_churn():
    """The HeavyGuardian property: a heavy hitter is retained under churn."""
    sk = make_sketch(buckets=4, entries=4)
    rng = DeterministicRNG(9, "traffic")
    for i in range(2000):
        sk.observe(999, 10)           # the elephant
        sk.observe(rng.randint(0, 200), 1)  # mice
    assert sk.contains(999)
    assert sk.workload_of(999) >= 100


def test_sram_footprint_matches_config():
    sk = make_sketch(buckets=16, entries=16)
    # 16 x 16 entries x (8 B address + 1 B counter) ~ 2.25 kB (paper: ~2 kB).
    assert sk.sram_bytes == 16 * 16 * 9


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=100),
              st.integers(min_value=1, max_value=50)),
    max_size=300,
))
def test_size_never_exceeds_capacity(observations):
    sk = make_sketch(buckets=2, entries=3)
    for block, w in observations:
        sk.observe(block, w)
        assert len(sk) <= 6
        for entry in sk.entries():
            assert 0 <= entry.workload <= 255
