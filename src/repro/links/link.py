"""Bandwidth-limited link model.

Links are the second kind of shared resource (after banks).  A link has a
fixed bandwidth in bytes per NDP-core cycle and a busy horizon; transfers
serialize on it.  Three link classes exist in the system:

* the per-chip 8-bit DQ slice between a bank group and the level-1 bridge
  (one per chip, shared by the chip's banks),
* the 64-bit channel between level-1 bridges and the level-2 bridge/host
  (one per channel, shared by the channel's ranks),
* the chip-internal bus used by RowClone transfers in design R.
"""

from __future__ import annotations

import math

from ..sim import Simulator, StatsRegistry


class Link:
    """A serializing, bandwidth-limited transfer resource."""

    def __init__(
        self,
        sim: Simulator,
        stats: StatsRegistry,
        name: str,
        bytes_per_cycle: float,
        fixed_latency: int = 0,
    ):
        if bytes_per_cycle <= 0:
            raise ValueError("link bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.fixed_latency = fixed_latency
        self.busy_until = 0
        self._bytes = stats.counter(name, "bytes")
        self._transfers = stats.counter(name, "transfers")
        self._busy_cycles = stats.counter(name, "busy_cycles")

    def transfer_cycles(self, nbytes: int) -> int:
        """Pure serialization time for ``nbytes`` on this link."""
        return self.fixed_latency + max(
            1, math.ceil(nbytes / self.bytes_per_cycle)
        )

    def transfer(self, now: int, nbytes: int) -> int:
        """Reserve the link for ``nbytes`` starting no earlier than ``now``.

        Returns the finish time.  The link is busy from
        ``max(now, busy_until)`` to the returned time.
        """
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        start = max(now, self.busy_until)
        duration = self.transfer_cycles(nbytes)
        finish = start + duration
        self.busy_until = finish
        self._bytes.add(nbytes)
        self._transfers.add()
        self._busy_cycles.add(duration)
        return finish

    def occupy_until(self, finish: int, nbytes: int) -> None:
        """Mark the link busy through ``finish`` for an externally timed
        transfer (e.g. one whose duration was computed jointly with a bank
        access).  Only extends the horizon; never shortens it."""
        if nbytes < 0:
            raise ValueError("occupied bytes must be non-negative")
        if finish > self.busy_until:
            newly_busy = finish - self.busy_until
            # ``transfer_cycles(max(1, nbytes))``, inlined: this runs once
            # per gathered or scattered child.
            cycles = math.ceil(
                (nbytes if nbytes > 0 else 1) / self.bytes_per_cycle
            )
            cycles = self.fixed_latency + (cycles if cycles > 1 else 1)
            self._busy_cycles.add(
                newly_busy if newly_busy < cycles else cycles
            )
            self.busy_until = finish
        self._bytes.add(nbytes)
        self._transfers.add()

    @property
    def total_bytes(self) -> int:
        return self._bytes.value

    @property
    def total_busy_cycles(self) -> int:
        return self._busy_cycles.value

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` cycles the link spent transferring."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_cycles.value / elapsed)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Link({self.name}, {self.bytes_per_cycle:.2f} B/cyc)"
