"""Base class for simulated hardware components."""

from __future__ import annotations

from typing import Callable, Optional

from .engine import Simulator


class Component:
    """A named piece of hardware attached to a :class:`Simulator`.

    Components form a tree through ``parent`` purely for naming/debugging;
    the actual wiring (who talks to whom) is explicit in each subclass.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: Optional["Component"] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.parent = parent

    @property
    def full_name(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.full_name}.{self.name}"

    @property
    def now(self) -> int:
        return self.sim.now

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        self.sim.schedule(delay, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.full_name!r})"
