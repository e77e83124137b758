"""Tests for the discrete-event simulation kernel."""

import heapq
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator
from repro.sim.engine import _not_int


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


# ----------------------------------------------------------------------
# equivalence with the per-event heap engine
# ----------------------------------------------------------------------
class HeapSimulator:
    """The per-event heap engine the per-cycle queue replaced, kept as
    the reference: one ``(time, seq, callback)`` tuple per event."""

    def __init__(self, max_cycles: int = 10_000_000_000) -> None:
        self.now = 0
        self.max_cycles = max_cycles
        self._queue = []
        self._seq = 0
        self._events_processed = 0
        self._stopped = False

    def schedule(self, delay, callback):
        if type(delay) is not int:
            raise _not_int("delay", delay)
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, callback))

    def schedule_at(self, time, callback):
        if type(time) is not int:
            raise _not_int("absolute time", time)
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback))

    def stop(self):
        self._stopped = True

    @property
    def events_processed(self):
        return self._events_processed

    @property
    def pending_events(self):
        return len(self._queue)

    def run(self, until=None):
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run until t={until}, current time is {self.now}"
            )
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        max_cycles = self.max_cycles
        limit = max_cycles if until is None else min(until, max_cycles)
        dispatched = 0
        try:
            while queue:
                nxt = queue[0][0]
                if nxt > limit:
                    if until is not None and nxt > until:
                        self.now = until
                        break
                    raise SimulationError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                self.now = nxt
                while queue and queue[0][0] == nxt:
                    heappop(queue)[2]()
                    dispatched += 1
                    if self._stopped:
                        return nxt
        finally:
            self._events_processed += dispatched
        return self.now


class Boom(Exception):
    """Raised by a program's event, caught by the driver."""


class Node(NamedTuple):
    """One event of a program: what it does when it runs."""

    #: (node, absolute, offset): schedule ``node`` ``offset`` cycles
    #: ahead, through ``schedule_at`` when ``absolute``.
    spawns: Tuple[Tuple[int, bool, int], ...]
    peek: bool        # log ``pending_events`` mid-batch
    bad: Optional[str]  # a rejected call: negative, float or past
    stop: bool
    raises: bool


class Program(NamedTuple):
    nodes: Tuple[Node, ...]
    roots: Tuple[Tuple[int, bool, int], ...]
    #: Cycles past ``now`` for each ``run(until)``, None for ``run()``.
    runs: Tuple[Optional[int], ...]
    max_cycles: int


def rarely(k: int):
    return st.integers(0, k - 1).map(lambda x: x == 0)


@st.composite
def programs(draw) -> Program:
    n = draw(st.integers(1, 24))
    nodes = []
    for i in range(n):
        spawns: Tuple[Tuple[int, bool, int], ...] = ()
        if i + 1 < n:  # children come later, so every program ends
            spawns = tuple(draw(st.lists(
                st.tuples(st.integers(i + 1, n - 1), st.booleans(),
                          st.integers(0, 4)),
                max_size=3,
            )))
        nodes.append(Node(
            spawns=spawns,
            peek=draw(rarely(3)),
            bad=draw(st.sampled_from((None,) * 5 + ("negative", "float",
                                                    "past"))),
            stop=draw(rarely(5)),
            raises=draw(rarely(7)),
        ))
    roots = tuple(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.booleans(), st.integers(0, 8)),
        min_size=1, max_size=6,
    )))
    runs = tuple(draw(st.lists(
        st.one_of(st.none(), st.integers(0, 6)), max_size=8,
    )))
    max_cycles = draw(st.sampled_from((10_000, 10_000, 14)))
    return Program(tuple(nodes), roots, runs, max_cycles)


#: Events a program may run before its events stop spawning (a program
#: may otherwise fan out exponentially), and ``run`` calls past its
#: listed ones: a correct engine consumes an event per ``run`` call on a
#: non-empty queue, so it drains well inside this.
EVENT_BUDGET = 200
MAX_DRAIN_CALLS = 2 * EVENT_BUDGET


def play(engine, program: Program):
    """Run ``program`` on a fresh ``engine``; after every ``run`` call,
    record its outcome, what its events did, ``now``,
    ``events_processed`` and ``pending_events``."""
    sim = engine(max_cycles=program.max_cycles)
    log = []
    ran = [0]

    def rejected(call):
        try:
            call()
        except (ValueError, SimulationError) as err:
            log.append(("rejected", type(err).__name__, str(err)))
        else:
            log.append(("accepted",))

    def schedule(node, absolute, offset):
        if absolute:
            sim.schedule_at(sim.now + offset, event(node))
        else:
            sim.schedule(offset, event(node))

    def event(i):
        def callback():
            node = program.nodes[i]
            log.append(("run", i, sim.now))
            ran[0] += 1
            if ran[0] <= EVENT_BUDGET:
                for spawn in node.spawns:
                    schedule(*spawn)
            if node.peek:
                log.append(("pending", sim.pending_events))
            if node.bad == "negative":
                rejected(lambda: sim.schedule(-1, event(i)))
            elif node.bad == "float":
                rejected(lambda: sim.schedule(1.0, event(i)))
            elif node.bad == "past":
                rejected(lambda: sim.schedule_at(sim.now - 1, event(i)))
            if node.stop:
                sim.stop()
            if node.raises:
                raise Boom(i)
        return callback

    for root in program.roots:
        schedule(*root)
    trace = []
    runs = list(program.runs)
    drain_calls = 0
    while runs or (sim.pending_events and drain_calls < MAX_DRAIN_CALLS):
        if not runs:
            drain_calls += 1
        until = runs.pop(0) if runs else None
        try:
            result = ("returned", sim.run(
                None if until is None else sim.now + until))
        except Boom as err:
            result = ("raised", err.args)
        except SimulationError as err:
            result = ("failed", str(err))
        trace.append((result, log[:], sim.now, sim.events_processed,
                      sim.pending_events))
        log.clear()
        if result[0] == "failed":
            break
    return trace


@settings(max_examples=400, deadline=None)
@given(programs())
def test_per_cycle_queue_matches_the_per_event_heap(program):
    """Random programs -- ``schedule`` (delay 0 included) and
    ``schedule_at`` on repeated cycles, rejected calls, ``stop()`` and a
    raising event mid-cycle, ``run(until)`` pauses on busy and empty
    cycles, the ``max_cycles`` guard -- leave the same trace on the
    per-cycle queue as on the per-event heap after every ``run`` call."""
    expected = play(HeapSimulator, program)
    got = play(Simulator, program)
    for k, (want, have) in enumerate(zip(expected, got)):
        assert have == want, f"after run call {k}"
    assert len(got) == len(expected)
