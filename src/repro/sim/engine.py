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
event order.

**Sanitizer mode.**  ``Simulator(sanitize=True)`` (or exporting
``NDPBRIDGE_SANITIZE=1``) turns on runtime invariant checking: delays
must be genuine ints (no silently-truncated floats), callbacks must be
callable, dispatch order must be strictly increasing in ``(time, seq)``
(which also proves ``seq`` never collides), batch time must be monotone,
and at every :meth:`run` exit an event-conservation audit verifies
``scheduled == dispatched + still-queued``.  All of this lives in
separate wrappers and a separate run loop, so the non-sanitized fast
path carries none of it -- the checks are compiled out, not branched
around.  Sanitized
and plain runs of the same model produce bit-identical cycle counts;
the tier-1 determinism tests assert this.
"""

from __future__ import annotations

import heapq
import os
from typing import Callable, List, Optional, Tuple

__all__ = ["SimulationError", "Simulator", "sanitize_from_env"]


def sanitize_from_env() -> bool:
    """True when ``NDPBRIDGE_SANITIZE`` asks for sanitizer mode."""
    return os.environ.get("NDPBRIDGE_SANITIZE", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """Global event queue and clock.

    Parameters
    ----------
    max_cycles:
        Hard safety limit; the run loop raises :class:`SimulationError` if
        the clock passes this value.  Protects against accidental infinite
        simulations (e.g. a bridge that keeps rescheduling itself after the
        workload has drained).
    sanitize:
        Enable runtime invariant checking (see the module docstring).
        ``None`` (the default) defers to the ``NDPBRIDGE_SANITIZE``
        environment variable.
    """

    def __init__(
        self,
        max_cycles: int = 10_000_000_000,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.now: int = 0
        self.max_cycles = max_cycles
        # Heap of (time, seq, callback).  seq is unique, so tuple
        # comparison never reaches the callback.
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        # Conservation/ordering bookkeeping.  _scheduled_total is only
        # counted by the sanitized wrappers, so the conservation audit is
        # meaningful only in sanitizer mode.
        self._scheduled_total = 0
        self._last_dispatched: Tuple[int, int] = (-1, -1)
        if sanitize is None:
            sanitize = sanitize_from_env()
        self.sanitize = bool(sanitize)
        if self.sanitize:
            # Shadow the scheduling entry points on the *instance* so the
            # class fast paths stay byte-identical when sanitizing is off.
            self.schedule = self._schedule_sanitized  # type: ignore[method-assign]
            self.schedule_at = self._schedule_at_sanitized  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Allocation-free: pushes one heap tuple and returns nothing.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + int(delay), seq, callback))

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute cycle count."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (int(time), seq, callback))

    # ------------------------------------------------------------------
    # sanitizer mode
    # ------------------------------------------------------------------
    def _sanitize_args(self, delta: int, callback: Callable[[], None],
                       kind: str) -> None:
        """Reject schedule arguments the fast path would silently coerce."""
        if type(delta) is not int:
            raise SimulationError(
                f"sanitize: {kind} must be an int, got "
                f"{type(delta).__name__} {delta!r} -- float time drifts "
                f"and breaks bit-identical replays"
            )
        if not callable(callback):
            raise SimulationError(
                f"sanitize: callback {callback!r} is not callable"
            )

    def _schedule_sanitized(
        self, delay: int, callback: Callable[[], None]
    ) -> None:
        self._sanitize_args(delay, callback, "delay")
        Simulator.schedule(self, delay, callback)
        self._scheduled_total += 1

    def _schedule_at_sanitized(
        self, time: int, callback: Callable[[], None]
    ) -> None:
        self._sanitize_args(time, callback, "absolute time")
        Simulator.schedule_at(self, time, callback)
        self._scheduled_total += 1

    def _check_dispatch_order(self, time: int, seq: int) -> None:
        """Popped entries must be strictly increasing in (time, seq).

        Strict increase simultaneously proves the heap never reorders,
        time never runs backwards between events, and ``seq`` never
        collides (a collision would make two entries compare equal).
        """
        if (time, seq) <= self._last_dispatched:
            raise SimulationError(
                f"sanitize: event order violated -- popped (t={time}, "
                f"seq={seq}) after {self._last_dispatched} (seq collision "
                f"or corrupted heap)"
            )
        self._last_dispatched = (time, seq)

    def audit(self) -> None:
        """Verify event conservation; raises :class:`SimulationError`.

        In sanitizer mode every event ever scheduled must have been
        dispatched or still be in the queue (the plain fast path does not
        count schedules, so there is nothing to check).  Sanitized
        :meth:`run` calls this automatically on every exit.
        """
        if not self.sanitize:
            return
        accounted = self._events_processed + len(self._queue)
        if self._scheduled_total != accounted:
            raise SimulationError(
                f"sanitize: event conservation violated -- scheduled "
                f"{self._scheduled_total} but dispatched "
                f"{self._events_processed} + queued {len(self._queue)} "
                f"= {accounted}"
            )

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

    @property
    def scheduled_total(self) -> int:
        """Events scheduled since construction (sanitizer mode only --
        the fast-path wrappers do not pay for this counter)."""
        return self._scheduled_total

    def step(self) -> bool:
        """Process one event.  Returns ``False`` when the queue is empty."""
        if not self._queue:
            return False
        time, seq, callback = heapq.heappop(self._queue)
        if self.sanitize:
            self._check_dispatch_order(time, seq)
        if time > self.max_cycles:
            raise SimulationError(
                f"simulation exceeded max_cycles={self.max_cycles}"
            )
        self.now = time
        callback()
        self._events_processed += 1
        return True

    def _check_until(self, until: Optional[int]) -> None:
        if until is not None and until < self.now:
            raise ValueError(
                f"cannot run until t={until}, current time is {self.now}"
            )

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

        In sanitizer mode a separate, instrumented loop runs instead (same
        event order, extra invariant checks, and an :meth:`audit` on every
        exit) so this fast loop carries zero sanitizer overhead.
        """
        if self.sanitize:
            return self._run_sanitized(until)
        self._check_until(until)
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

    def _run_sanitized(self, until: Optional[int] = None) -> int:
        """The :meth:`run` loop with invariant checks.

        Mirrors the fast loop event-for-event (identical dispatch order,
        hence bit-identical results) and additionally asserts batch-time
        monotonicity and strict ``(time, seq)`` dispatch order, then
        audits conservation on every exit path.
        """
        self._check_until(until)
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        max_cycles = self.max_cycles
        # audit() runs on every *clean* exit (not when an exception is
        # already unwinding -- a half-dispatched event would fail
        # conservation and mask the real error).
        while queue:
            nxt = queue[0][0]
            if until is not None and nxt > until:
                self.now = until
                break
            if nxt > max_cycles:
                raise SimulationError(
                    f"simulation exceeded max_cycles={max_cycles}"
                )
            if nxt < self.now:
                raise SimulationError(
                    f"sanitize: time ran backwards -- next batch at "
                    f"t={nxt} but clock already at t={self.now}"
                )
            self.now = nxt
            while queue and queue[0][0] == nxt:
                time, seq, callback = heappop(queue)
                self._check_dispatch_order(time, seq)
                callback()
                self._events_processed += 1
                if self._stopped:
                    self.audit()
                    return self.now
        self.audit()
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
