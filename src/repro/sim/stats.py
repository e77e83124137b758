"""Lightweight statistics collection.

Every unit, bank, bridge and link registers named counters with a shared
:class:`StatsRegistry`.  The registry is a plain dict of
:class:`Counter` objects keyed ``"<scope>.<name>"``, with a suffix sum for
machine-wide totals and a uniform ``as_dict`` for reporting.
"""

from __future__ import annotations

from typing import Dict


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class StatsRegistry:
    """Shared registry of named counters, grouped by component scope."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, scope: str, name: str) -> Counter:
        key = f"{scope}.{name}"
        if key not in self._counters:
            self._counters[key] = Counter(key)
        return self._counters[key]

    def sum_counters(self, suffix: str) -> int:
        """Sum all counters whose key ends with ``suffix``."""
        return sum(
            c.value for k, c in self._counters.items() if k.endswith(suffix)
        )

    def as_dict(self) -> Dict[str, int]:
        return {k: c.value for k, c in self._counters.items()}
