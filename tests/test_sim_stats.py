"""Tests for the statistics registry."""

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
