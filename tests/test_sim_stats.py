"""Tests for the statistics registry."""

import pytest

from repro.sim import StatsRegistry


def test_counter_identity_and_increment():
    stats = StatsRegistry()
    c1 = stats.counter("unit0", "reads")
    c2 = stats.counter("unit0", "reads")
    assert c1 is c2
    c1.add()
    c1.add(4)
    assert c2.value == 5


def test_counter_scoping():
    stats = StatsRegistry()
    stats.counter("unit0", "reads").add(3)
    stats.counter("unit1", "reads").add(5)
    stats.counter("unit1", "writes").add(2)
    assert stats.sum_counters(".reads") == 8
    assert stats.sum_counters(".writes") == 2


def test_as_dict_round_trip():
    stats = StatsRegistry()
    stats.counter("a", "b").add(7)
    stats.counter("c", "d")
    assert stats.as_dict() == {"a.b": 7, "c.d": 0}


def test_sum_suffixes_is_sum_counters_in_one_pass():
    stats = StatsRegistry()
    stats.counter("unit0", "reads").add(3)
    stats.counter("unit0", "spreads").add(100)  # ends with "reads", not ".reads"
    stats.counter("fabric.bridge1", "reads").add(5)
    stats.counter("link.chip0", "bytes").add(64)
    stats.counter("unit1", "writes").add(2)
    suffixes = (".reads", ".bytes", ".missing", ".writes")
    assert stats.sum_suffixes(*suffixes) == (8, 64, 0, 2)
    assert stats.sum_suffixes(*suffixes) == tuple(
        stats.sum_counters(s) for s in suffixes)


@pytest.mark.parametrize("suffix", ["reads", ".bridge1.reads", ""])
def test_sum_suffixes_takes_a_dot_and_a_counter_name(suffix):
    with pytest.raises(ValueError, match="counter name"):
        StatsRegistry().sum_suffixes(suffix)
