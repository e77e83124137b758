"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(7, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_from_callback():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(5, lambda: seen.append(sim.now))

    sim.schedule(10, first)
    sim.run()
    assert seen == [10, 15]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_run_until_time_bound():
    sim = Simulator()
    hits = []
    sim.schedule(10, lambda: hits.append(10))
    sim.schedule(100, lambda: hits.append(100))
    sim.run(until=50)
    assert hits == [10]
    assert sim.now == 50
    sim.run()
    assert hits == [10, 100]


def test_stop_from_callback_halts_loop():
    sim = Simulator()
    hits = []

    def hit(t):
        hits.append(t)
        if len(hits) == 3:
            sim.stop()

    for t in range(1, 6):
        sim.schedule(t, lambda t=t: hit(t))
    assert sim.run() == 3
    assert hits == [1, 2, 3]
    assert sim.events_processed == 3
    assert sim.pending_events == 2


def test_run_until_in_the_past_rejected():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(sim.now))
    sim.schedule(30, lambda: fired.append(sim.now))
    assert sim.run(until=20) == 20
    with pytest.raises(
        ValueError, match="cannot run until t=5, current time is 20"
    ):
        sim.run(until=5)
    assert sim.now == 20
    assert sim.run(until=20) == 20  # pausing where we stand is fine
    sim.schedule(3, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10, 23, 30]


def test_until_beyond_max_cycles_still_guards():
    sim = Simulator(max_cycles=100)
    sim.schedule(150, lambda: None)
    assert sim.run(until=50) == 50
    with pytest.raises(SimulationError, match="max_cycles=100"):
        sim.run(until=200)


def test_events_processed_counts_events_before_an_error():
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1, lambda: None)
    sim.schedule(1, lambda: None)
    sim.schedule(2, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.events_processed == 2


def test_max_cycles_guard():
    sim = Simulator(max_cycles=100)

    def reschedule():
        sim.schedule(60, reschedule)

    sim.schedule(60, reschedule)
    with pytest.raises(SimulationError):
        sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for t in range(4):
        sim.schedule(t + 1, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_fast_path_schedule_returns_nothing():
    sim = Simulator()
    assert sim.schedule(1, lambda: None) is None
    assert sim.schedule_at(2, lambda: None) is None


def test_same_cycle_batch_includes_events_scheduled_mid_batch():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, lambda: order.append("injected"))

    sim.schedule(4, first)
    sim.schedule(4, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "injected"]
    assert sim.now == 4


def test_stop_inside_batch_leaves_rest_of_cycle_pending():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: (order.append("a"), sim.stop()))
    sim.schedule(5, lambda: order.append("b"))
    sim.run()
    assert order == ["a"]
    assert sim.pending_events == 1
    sim.run()
    assert order == ["a", "b"]


def test_run_twice_same_seed_is_bit_identical():
    """Engine-level determinism: an identical schedule replayed twice
    yields identical times and event counts."""
    import random

    def build_and_run():
        sim = Simulator()
        rng = random.Random(1234)
        fired = []

        def tick(depth):
            fired.append(sim.now)
            if depth < 4:
                for _ in range(2):
                    sim.schedule(rng.randrange(1, 50),
                                 lambda d=depth + 1: tick(d))

        for _ in range(10):
            sim.schedule(rng.randrange(0, 20), lambda: tick(0))
        sim.run()
        return sim.now, sim.events_processed, fired

    assert build_and_run() == build_and_run()
