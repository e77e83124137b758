"""Base class for simulated hardware components."""

from __future__ import annotations

from typing import Callable, ClassVar, Optional, Tuple

from .engine import Simulator


class Component:
    """A named piece of hardware attached to a :class:`Simulator`.

    Components form a tree through ``parent`` purely for naming/debugging;
    the actual wiring (who talks to whom) is explicit in each subclass.

    **State-ownership declarations** (the simstate ST005 contract): a
    class whose ``__init__`` stores a caller-provided mutable container
    must say who owns it, so per-object restore has a single registered
    owner for every aliased structure:

    * ``_snapshot_owns_`` -- this object is the sole owner; the caller
      hands the container over and must not retain a mutating reference.
    * ``_snapshot_borrowed_`` -- the attribute aliases a container whose
      registered owner is elsewhere in the system graph (snapshot's
      deep clone preserves the aliasing through its shared memo).

    Both are class-level *immutable* tuples of attribute names; any
    class (not only Component subclasses) may declare them.
    """

    _snapshot_owns_: ClassVar[Tuple[str, ...]] = ()
    _snapshot_borrowed_: ClassVar[Tuple[str, ...]] = ()

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
