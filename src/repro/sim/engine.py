"""Discrete-event simulation engine.

The whole NDPBridge model runs on a single global event queue with integer
time.  Time is measured in *NDP-core cycles* (400 MHz by default, i.e. one
cycle is 2.5 ns).  Every hardware structure (banks, links, bridges, cores)
holds a reference to the shared :class:`Simulator` and schedules its
callbacks on it.

The engine is the hottest code in the repository -- every figure of the
evaluation replays millions of events through it -- so the queue is kept
per cycle, not per event: a binary heap holds each distinct pending cycle
once, and a dict maps that cycle to the list of its callbacks in
scheduling order.  :meth:`Simulator.schedule` appends to the cycle's list
and pushes the cycle onto the heap only when the cycle is new; a model
run schedules about 2.7 events per distinct cycle, so most calls never
touch the heap, and the heap compares plain ``int`` cycles.  The run
loop pops one cycle and drains its list, paying the ``until`` /
``max_cycles`` bookkeeping once per cycle instead of once per event.
The only per-event test is the flag :meth:`Simulator.stop` sets; the
owner's ``RunTracker`` calls it when the run is over.

Determinism is a hard requirement -- two runs with the same seed must
produce identical cycle counts -- so events execute strictly in cycle
order and, within a cycle, in the order they were scheduled.  No
wall-clock or hashing order ever influences event order.  Time is an
exact ``int``: :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` reject anything else on every call, floats
and numpy integers included.  Float time drifts and breaks bit-identical
replays.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import length_hint
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["SimulationError", "Simulator"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


def _not_int(kind: str, value: object) -> SimulationError:
    return SimulationError(
        f"{kind} must be an int, got {type(value).__name__} {value!r} -- "
        f"float time drifts and breaks bit-identical replays"
    )


class Simulator:
    """Global event queue and clock.

    Parameters
    ----------
    max_cycles:
        Hard safety limit; the run loop raises :class:`SimulationError` if
        the clock passes this value.  Protects against accidental infinite
        simulations (e.g. a bridge that keeps rescheduling itself after the
        workload has drained).
    """

    def __init__(self, max_cycles: int = 10_000_000_000) -> None:
        self.now: int = 0
        self.max_cycles = max_cycles
        # Heap of the distinct pending cycles, and each one's callbacks
        # in scheduling order.  A cycle is in the heap exactly while it
        # has a list in ``_batches``; no list is ever empty between runs.
        self._cycles: List[int] = []
        self._batches: Dict[int, List[Callable[[], None]]] = {}
        self._events_processed = 0
        self._stopped = False
        # While a batch runs: the iterator over it, whose length hint is
        # the number of its callbacks not yet run.
        self._draining: Optional[Iterator[Callable[[], None]]] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Appends to the cycle's list, pushing the cycle onto the heap only
        when it is new, and returns nothing.
        """
        if type(delay) is not int:
            raise _not_int("delay", delay)
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        batch = self._batches.get(time)
        if batch is None:
            self._batches[time] = [callback]
            heappush(self._cycles, time)
        else:
            batch.append(callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute cycle count."""
        if type(time) is not int:
            raise _not_int("absolute time", time)
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        batch = self._batches.get(time)
        if batch is None:
            self._batches[time] = [callback]
            heappush(self._cycles, time)
        else:
            batch.append(callback)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Callbacks not yet run: one pass over the pending cycles."""
        pending = sum(map(len, self._batches.values()))
        draining = self._draining
        if draining is not None:
            # Mid-batch: the current cycle's callbacks that already ran
            # are still in its list.
            pending += length_hint(draining) - len(self._batches[self.now])
        return pending

    def _consume(self, cycle: int, batch: List[Callable[[], None]],
                 ran: int) -> None:
        """Drop the first ``ran`` callbacks of ``cycle``'s batch, and the
        cycle itself once nothing of it is left."""
        del batch[:ran]
        if not batch:
            heappop(self._cycles)
            del self._batches[cycle]

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is passed, or a stop.

        The owner ends a run early by calling :meth:`stop` from a
        callback (the system facades register it with their
        ``RunTracker``); the rest of that cycle stays pending for the
        next run.  Returns the final simulation time.  ``until`` may not
        precede the current time: pausing in the past would wind the
        clock back.

        Each heap pop yields one cycle, whose callbacks run as one batch:
        the ``until`` / ``max_cycles`` test is a single comparison per
        simulated cycle.  Events scheduled *during* a batch at the
        current cycle are appended to the list being drained, so they
        join the same batch and run last, exactly as a ``(time, seq)``
        heap would order them.  A callback that raises is consumed but
        not counted in :attr:`events_processed`; the rest of its cycle
        stays pending.
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run until t={until}, current time is {self.now}"
            )
        self._stopped = False
        cycles = self._cycles
        batches = self._batches
        max_cycles = self.max_cycles
        # Past `limit` the loop either pauses at `until` or overran.
        limit = max_cycles if until is None else min(until, max_cycles)
        dispatched = 0
        try:
            while cycles:
                nxt = cycles[0]
                if nxt > limit:
                    if until is not None and nxt > until:
                        self.now = until
                        break
                    raise SimulationError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                self.now = nxt
                batch = batches[nxt]
                # A list iterator sees callbacks appended while it runs.
                callbacks = self._draining = iter(batch)
                try:
                    for callback in callbacks:
                        callback()
                        if self._stopped:
                            break
                    else:
                        dispatched += len(batch)
                        heappop(cycles)
                        del batches[nxt]
                        continue
                except BaseException:
                    ran = len(batch) - length_hint(callbacks)
                    dispatched += ran - 1
                    self._consume(nxt, batch, ran)
                    raise
                # Stopped: keep the callbacks after the one that stopped.
                ran = len(batch) - length_hint(callbacks)
                dispatched += ran
                self._consume(nxt, batch, ran)
                return nxt
        finally:
            self._draining = None
            self._events_processed += dispatched
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
