"""Lightweight statistics collection.

Every unit, bank, bridge and link registers named counters with a shared
:class:`StatsRegistry`.  The registry is a plain dict of
:class:`Counter` objects keyed ``"<scope>.<name>"``, with a suffix sum for
machine-wide totals and a uniform ``as_dict`` for reporting.
"""

from __future__ import annotations

from typing import Dict, Tuple


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
        return self._counters.setdefault(key, Counter(key))

    def sum_counters(self, suffix: str) -> int:
        """Sum all counters whose key ends with ``suffix``."""
        return sum(
            c.value for k, c in self._counters.items() if k.endswith(suffix)
        )

    def sum_suffixes(self, *suffixes: str) -> Tuple[int, ...]:
        """``sum_counters`` of each of ``suffixes``, in one pass.

        Each suffix is a dot and a counter name with no dot in it, so the
        key of a counter that ends with one of them ends at its last dot
        with exactly that one.
        """
        for suffix in suffixes:
            if not suffix.startswith(".") or "." in suffix[1:]:
                raise ValueError(f"not a dot and a counter name: {suffix!r}")
        totals = dict.fromkeys(suffixes, 0)
        for key, counter in self._counters.items():
            if key.endswith(suffixes):
                totals[key[key.rfind("."):]] += counter.value
        return tuple(totals[suffix] for suffix in suffixes)

    def as_dict(self) -> Dict[str, int]:
        return {k: c.value for k, c in self._counters.items()}
