"""Discrete-event simulation engine.

The whole NDPBridge model runs on a single global event queue with integer
time.  Time is measured in *NDP-core cycles* (400 MHz by default, i.e. one
cycle is 2.5 ns).  Every hardware structure (banks, links, bridges, cores)
holds a reference to the shared :class:`Simulator` and schedules its
callbacks on it.

The engine is the hottest code in the repository -- every figure of the
evaluation replays millions of events through it -- so the common case is
kept allocation-free: :meth:`Simulator.schedule` pushes a bare
``(time, seq, callback)`` tuple onto a binary heap and returns nothing.
The run loop drains all events that share a timestamp in one batch,
paying the ``until`` / ``max_cycles`` bookkeeping once per cycle instead
of once per event.  The only per-event test is the flag
:meth:`Simulator.stop` sets; the owner's ``RunTracker`` calls it when the
run is over.

Determinism is a hard requirement -- two runs with the same seed must
produce identical cycle counts -- so events execute strictly in
``(time, seq)`` order and no wall-clock or hashing order ever influences
event order.  Time is an exact ``int``: :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` reject anything else on every call, floats
and numpy integers included.  Float time drifts and breaks bit-identical
replays.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

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
        # Heap of (time, seq, callback).  seq is unique, so tuple
        # comparison never reaches the callback.
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._events_processed = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Allocation-free: pushes one heap tuple and returns nothing.
        """
        if type(delay) is not int:
            raise _not_int("delay", delay)
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, callback))

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute cycle count."""
        if type(time) is not int:
            raise _not_int("absolute time", time)
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback))

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
        """Entries still in the queue.  O(1)."""
        return len(self._queue)

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is passed, or a stop.

        The owner ends a run early by calling :meth:`stop` from a
        callback (the system facades register it with their
        ``RunTracker``).  Returns the final simulation time.  ``until``
        may not precede the current time: pausing in the past would wind
        the clock back.

        All events sharing a timestamp are dispatched as one batch: the
        ``until`` / ``max_cycles`` test is a single comparison per
        simulated cycle, and the heap top is only re-examined to detect
        the end of the batch.  Events scheduled *during* a batch at the
        current cycle join the same batch (they carry a larger seq, so
        they run last, exactly as the one-at-a-time loop would order
        them).
        """
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run until t={until}, current time is {self.now}"
            )
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        max_cycles = self.max_cycles
        # Past `limit` the loop either pauses at `until` or overran.
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
                # Same-cycle batch: drain every entry stamped `nxt`.
                while queue and queue[0][0] == nxt:
                    heappop(queue)[2]()
                    dispatched += 1
                    if self._stopped:
                        return nxt
        finally:
            self._events_processed += dispatched
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
